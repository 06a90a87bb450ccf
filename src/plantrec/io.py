"""File formats.

Graph:      header line "n m", then m distinct lines "u v" with 0-based
            u < v < n, LF, and nothing after them but blank lines.  The
            header needs m <= n(n-1)/2 and an n x n byte adjacency within
            physical memory, checked before it is allocated.  Numbers are
            plain decimal digits, fields are separated by spaces or tabs,
            and CRLF or CR also end a line.  Both directions are
            vectorized with numpy, O(n^2 + m), with no Python step per
            edge.  The writer takes row u's neighbors v > u in one call
            per vertex.  The reader takes runs of lines of about 64K
            characters: a run must hold only digits, spaces, tabs and line
            breaks; the ends of its numbers (a digit followed by a
            non-digit) are counted, and the k-th line break must come
            after exactly 2k of them, so each line is "u v"; then one
            np.fromstring call parses the run.  A number too large for
            int64 reads as its maximum and so fails v < n.
Partition:  one line of n space-separated 0-based cluster ids, each plain
            ASCII decimal digits, as graph numbers are.
Reports:    CSV with columns name,lhs,rhs,satisfied,n,k,s,p,q,seed,J_or_S.
"""

from __future__ import annotations

import csv

import numpy as np

from .model import Graph, PlantedPartition, require_adjacency_memory

__all__ = [
    "write_graph",
    "read_graph",
    "write_partition",
    "read_partition",
    "write_reports_csv",
    "REPORT_COLUMNS",
]

_EDGE_LINE_BYTES = b"0123456789 \t\n"
_CHUNK_CHARS = 1 << 16

REPORT_COLUMNS = ("name", "lhs", "rhs", "satisfied", "n", "k", "s", "p", "q", "seed", "J_or_S")


def write_graph(path, g: Graph) -> None:
    names = np.array([str(v) for v in range(g.n)], dtype=object)
    with open(path, "w", newline="\n") as f:
        f.write(f"{g.n} {g.edge_count}\n")
        for u in range(g.n):
            # row u's edges u < v, v ascending
            neighbors = names[np.flatnonzero(g.adj[u, u + 1 :]) + (u + 1)]
            if neighbors.size:
                prefix = f"{u} "
                f.write(prefix + f"\n{prefix}".join(neighbors) + "\n")


def read_graph(path) -> Graph:
    with open(path, encoding="ascii") as f:
        n, m = _graph_header(f.readline())
        adj = np.zeros((n, n), dtype=np.uint8)
        done = 0  # edge lines read so far
        for text in _runs_of_lines(f):
            block = text.encode("ascii")
            if done < m:
                breaks = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
                # the block's edge lines end at its (m - done)-th line break, or with the block
                cut = int(breaks[m - done - 1]) + 1 if m - done <= breaks.size else len(block)
                u, v = _edge_lines(block[:cut], breaks[: m - done], first_line=done + 2).T
                bad = ~((u < v) & (v < n))  # u >= 0: no sign passes _edge_lines
                if bad.any():
                    raise ValueError(f"edge line {done + int(np.argmax(bad)) + 2}: need 0 <= u < v < n")
                adj[u, v] = 1
                adj[v, u] = 1
                done += u.size
                block = block[cut:]
            if block.strip():
                raise ValueError(f"graph file has lines after its {m} edges")
    if done < m:
        raise ValueError(f"graph file ends after {done} of its {m} edge lines")
    # every distinct edge sets two entries, so a repeated edge line shows here
    if np.count_nonzero(adj) != 2 * m:
        raise ValueError(f"graph file repeats edges: {np.count_nonzero(adj) // 2} distinct of {m}")
    return Graph(adj=adj)


def _runs_of_lines(f):
    """The text file `f` from its position on, as strings of whole lines of
    about _CHUNK_CHARS each; the last may lack its line break.

    Runs keep every buffer but the adjacency small and reused.  A parse of
    the whole file at once left its freed file-sized blocks resident in the
    heap (about 30 MB for a 26 MB file), which raised the peak RSS of the
    recovery that follows by as much."""
    tail = ""
    while chunk := f.read(_CHUNK_CHARS):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        tail = text[cut:]
    if tail:
        yield tail


def _graph_header(line: str) -> tuple[int, int]:
    """(n, m) from the header line, checked before anything of size n is allocated."""
    parts = line.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ValueError("graph header must be 'n m' with two non-negative integers")
    n, m = int(parts[0]), int(parts[1])
    if m > n * (n - 1) // 2:
        raise ValueError(f"graph header: m = {m} exceeds n(n-1)/2 = {n * (n - 1) // 2}")
    require_adjacency_memory(n, "graph header")
    return n, m


def _edge_lines(block: bytes, breaks: np.ndarray, first_line: int) -> np.ndarray:
    """The k x 2 int64 array of `block`, k lines that must each be 'u v';
    `breaks` holds the positions of its line breaks."""
    if block.translate(None, _EDGE_LINE_BYTES):
        raise ValueError("edge lines may hold only decimal digits, spaces and tabs")
    if not block.endswith(b"\n"):  # the file's last line, unterminated
        breaks = np.append(breaks, len(block))
        block += b"\n"
    lines = breaks.size
    # the bytes left besides digits are spaces, tabs and LF, all below "0"
    digit = np.frombuffer(block, dtype=np.uint8) >= ord("0")
    # where a number ends: a digit followed by a non-digit
    number_ends = np.flatnonzero(digit[:-1] > digit[1:])
    # the k-th line break must come after exactly 2k number ends: the 2k-th
    # before it and the (2k+1)-th after it
    if not (
        number_ends.size == 2 * lines
        and (number_ends[1::2] < breaks).all()
        and (number_ends[2::2] > breaks[:-1]).all()
    ):
        raise ValueError(
            f"edge lines {first_line}..{first_line + lines - 1}: each must hold 'u v', and none may be blank"
        )
    # a number too large for int64 reads as its maximum, and then fails v < n
    return np.fromstring(block, dtype=np.int64, sep=" ").reshape(lines, 2)


def write_partition(path, part: PlantedPartition) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(" ".join(str(int(c)) for c in part.assignment) + "\n")


def read_partition(path) -> PlantedPartition:
    with open(path, encoding="ascii") as f:
        tokens = f.read().split()
    # int() would also take a sign, digit separators and non-ASCII digits
    if not all(tok.isdigit() for tok in tokens):
        raise ValueError("partition ids must be plain decimal digits")
    ids = [int(tok) for tok in tokens]
    if not ids:
        raise ValueError("partition file is empty")
    k = max(ids) + 1
    # k <= n clusters: a larger id is invalid before it sizes the counts
    if k > len(ids):
        raise ValueError("partition must use ids 0..k-1 with equal cluster sizes")
    assignment = np.asarray(ids, dtype=np.int64)
    counts = np.bincount(assignment, minlength=k)
    if (counts != counts[0]).any():
        raise ValueError("partition must use ids 0..k-1 with equal cluster sizes")
    return PlantedPartition(assignment=assignment, k=k, s=int(counts[0]))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    # a numpy float too, as the float the model compared against: the repr
    # of np.float64 names its type, and np.float32 would print its own digits
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
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
        values = [float(r.lhs), float(r.rhs), bool(r.satisfied)]
        values += [ctx.get(key) for key in ("n", "k", "s", "p", "q", "seed")]
        writer.writerow([r.name, *map(_format_cell, values), hex(mask) if mask is not None else ""])
