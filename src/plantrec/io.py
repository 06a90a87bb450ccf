"""File formats.

Graph:      header line "n m", then m distinct lines "u v" with 0-based
            u < v, LF, and nothing after them.
Partition:  one line of n space-separated 0-based cluster ids.
Matrix:     header "m", then m lines of m decimal floats (debugging dumps).
Reports:    CSV with columns name,lhs,rhs,satisfied,n,k,s,p,q,seed,J_or_S.
"""

from __future__ import annotations

import csv

import numpy as np

from .model import Graph, PlantedPartition

__all__ = [
    "write_graph",
    "read_graph",
    "write_partition",
    "read_partition",
    "write_matrix",
    "read_matrix",
    "write_reports_csv",
    "REPORT_COLUMNS",
]

REPORT_COLUMNS = ("name", "lhs", "rhs", "satisfied", "n", "k", "s", "p", "q", "seed", "J_or_S")


def write_graph(path, g: Graph) -> None:
    iu, ju = np.nonzero(np.triu(g.adj, k=1))
    with open(path, "w", newline="\n") as f:
        f.write(f"{g.n} {iu.size}\n")
        for u, v in zip(iu, ju):
            f.write(f"{u} {v}\n")


def read_graph(path) -> Graph:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError("graph header must be 'n m'")
        n, m = int(header[0]), int(header[1])
        adj = np.zeros((n, n), dtype=np.uint8)
        for lineno in range(m):
            parts = f.readline().split()
            if len(parts) != 2:
                raise ValueError(f"edge line {lineno + 2}: expected 'u v'")
            u, v = int(parts[0]), int(parts[1])
            if not 0 <= u < v < n:
                raise ValueError(f"edge line {lineno + 2}: need 0 <= u < v < n")
            adj[u, v] = 1
            adj[v, u] = 1
        if f.read().strip():
            raise ValueError(f"graph file has lines after its {m} edges")
    # every distinct edge sets two entries, so a repeated edge line shows here
    if np.count_nonzero(adj) != 2 * m:
        raise ValueError(f"graph file repeats edges: {np.count_nonzero(adj) // 2} distinct of {m}")
    return Graph(adj=adj)


def write_partition(path, part: PlantedPartition) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(" ".join(str(int(c)) for c in part.assignment) + "\n")


def read_partition(path) -> PlantedPartition:
    with open(path) as f:
        ids = [int(tok) for tok in f.read().split()]
    if not ids:
        raise ValueError("partition file is empty")
    assignment = np.asarray(ids, dtype=np.int64)
    k = int(assignment.max()) + 1
    counts = np.bincount(assignment, minlength=k)
    if assignment.min() < 0 or (counts != counts[0]).any():
        raise ValueError("partition must use ids 0..k-1 with equal cluster sizes")
    return PlantedPartition(assignment=assignment, k=k, s=int(counts[0]))


def write_matrix(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    with open(path, "w", newline="\n") as f:
        f.write(f"{a.shape[0]}\n")
        for row in a:
            f.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as f:
        m = int(f.readline())
        rows = [[float(tok) for tok in f.readline().split()] for _ in range(m)]
    a = np.asarray(rows, dtype=np.float64)
    if a.shape != (m, m):
        raise ValueError("matrix body does not match header size")
    return a


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_reports_csv(file, reports) -> None:
    """Write bound reports; `file` is a path or a text stream."""
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        with open(file, "w", newline="\n") as f:
            write_reports_csv(f, reports)
        return
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in reports:
        ctx = r.context
        mask = ctx.get("mask")
        writer.writerow(
            [
                r.name,
                repr(float(r.lhs)),
                repr(float(r.rhs)),
                "true" if r.satisfied else "false",
                _format_cell(ctx.get("n")),
                _format_cell(ctx.get("k")),
                _format_cell(ctx.get("s")),
                _format_cell(ctx.get("p")),
                _format_cell(ctx.get("q")),
                _format_cell(ctx.get("seed")),
                hex(mask) if mask is not None else "",
            ]
        )
