import sys

import pytest

from plantrec import spectral


@pytest.fixture
def iterative_on(monkeypatch):
    """The certified block iteration tried on every top-r solve it can run:
    no size floor, no threshold rule, and a budget of m products."""
    if spectral._LAPACK is None:
        pytest.skip("LAPACK does not resolve: every top-r solve is numpy's eigh")
    monkeypatch.setattr(spectral, "_ITERATIVE_MIN_DIM", 0)
    monkeypatch.setattr(spectral, "_ITERATIVE_MIN_C", 0.0)
    monkeypatch.setattr(spectral, "_DIM_PER_PRODUCT", 1)


@pytest.fixture
def iterative_off(monkeypatch):
    """Every top-r solve goes straight to dsyevr."""
    monkeypatch.setattr(spectral, "_ITERATIVE_MIN_DIM", sys.maxsize)
