import io as stdio

import numpy as np
import pytest

from plantrec.bounds import BoundReport
from plantrec.io import (
    read_graph,
    read_matrix,
    read_partition,
    write_graph,
    write_matrix,
    write_partition,
    write_reports_csv,
)
from plantrec.model import ModelParams, make_partition, sample_graph


class TestGraphFormat:
    def test_roundtrip(self, tmp_path):
        part = make_partition(20, 5)
        g = sample_graph(part, ModelParams(p=0.7, q=0.2, seed=2))
        path = tmp_path / "g.txt"
        write_graph(path, g)
        assert (read_graph(path).adj == g.adj).all()

    def test_format_details(self, tmp_path):
        part = make_partition(4, 2)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))
        path = tmp_path / "g.txt"
        write_graph(path, g)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "4 2"
        assert lines[1:] == ["0 1", "2 3"]
        assert "\r" not in text

    def test_rejects_bad_edges(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n2 1\n")  # u >= v
        with pytest.raises(ValueError):
            read_graph(path)
        path.write_text("3 1\n0 5\n")  # out of range
        with pytest.raises(ValueError):
            read_graph(path)

    def test_rejects_duplicate_edge_lines(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("4 3\n0 1\n0 1\n2 3\n")
        with pytest.raises(ValueError, match="repeats edges"):
            read_graph(path)

    def test_rejects_lines_after_last_edge(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("4 1\n0 1\n2 3\n")
        with pytest.raises(ValueError, match="after its 1 edges"):
            read_graph(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("4 1\n0 1\n\n")
        assert read_graph(path).edge_count == 1

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(tmp_path / "nope.txt")


class TestPartitionFormat:
    def test_roundtrip(self, tmp_path):
        part = make_partition(12, 3)
        path = tmp_path / "p.txt"
        write_partition(path, part)
        back = read_partition(path)
        assert (back.assignment == part.assignment).all()
        assert back.k == 4 and back.s == 3

    def test_single_line_zero_based(self, tmp_path):
        part = make_partition(4, 2)
        path = tmp_path / "p.txt"
        write_partition(path, part)
        assert path.read_text() == "0 0 1 1\n"

    def test_rejects_unbalanced(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0 0 1\n")
        with pytest.raises(ValueError):
            read_partition(path)


class TestMatrixFormat:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        path = tmp_path / "m.txt"
        write_matrix(path, a)
        assert (read_matrix(path) == a).all()  # repr() is lossless for float64

    def test_header(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.zeros((2, 2)))
        assert path.read_text().splitlines()[0] == "2"


class TestReportsCsv:
    def test_columns_and_values(self):
        rep = BoundReport.of("norm_deviation", 1.5, 2.0, n=10, k=2, s=5, p=0.8, q=0.2, seed=3, mask=5)
        buf = stdio.StringIO()
        write_reports_csv(buf, [rep])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "name,lhs,rhs,satisfied,n,k,s,p,q,seed,J_or_S"
        assert lines[1] == "norm_deviation,1.5,2.0,true,10,2,5,0.8,0.2,3,0x5"

    def test_missing_context_left_blank(self):
        rep = BoundReport.of("weyl", 3.0, 2.0)
        buf = stdio.StringIO()
        write_reports_csv(buf, [rep])
        assert buf.getvalue().splitlines()[1] == "weyl,3.0,2.0,false,,,,,,,"

    def test_path_target(self, tmp_path):
        rep = BoundReport.of("x", 0.0, 1.0, n=4)
        out = tmp_path / "r.csv"
        write_reports_csv(out, [rep])
        assert out.read_text().startswith("name,lhs,rhs")
