import io as stdio
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plantrec.io
from plantrec.bounds import BoundReport
from plantrec.io import (
    read_graph,
    read_partition,
    write_graph,
    write_partition,
    write_reports_csv,
)
from plantrec.model import Graph, ModelParams, make_partition, sample_graph


def _reference_write_graph(path, g: Graph) -> None:
    """The writer's definition, one line per Python iteration (test oracle)."""
    iu, ju = np.nonzero(np.triu(g.adj, k=1))
    with open(path, "w", newline="\n") as f:
        f.write(f"{g.n} {iu.size}\n")
        for u, v in zip(iu, ju):
            f.write(f"{u} {v}\n")


def _reference_read_graph(path) -> Graph:
    """The reader's definition, one line per Python iteration (test oracle)."""
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
    if np.count_nonzero(adj) != 2 * m:
        raise ValueError(f"graph file repeats edges: {np.count_nonzero(adj) // 2} distinct of {m}")
    return Graph(adj=adj)


def _outcome(reader, path):
    """(n, adjacency bytes) of a graph read from `path`, or "ValueError"."""
    try:
        g = reader(path)
    except ValueError:
        return "ValueError"
    return g.n, g.adj.tobytes()


@st.composite
def graph_files(draw):
    """Text of a valid graph file, or of one with a single mutation: a blank
    line, a line of 1 or 3 tokens or with a non-integer token, u >= v,
    v >= n, a repeated edge, trailing text or blank lines, or a header m off
    by one.  Separators mix tabs and runs of spaces; line breaks are LF,
    CRLF or CR; the last line may be unterminated."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    sep = st.sampled_from([" ", "\t", "  ", " \t", "\t\t"])
    pad = st.sampled_from(["", "", " ", "\t"])
    lines = [f"{draw(pad)}{u}{draw(sep)}{v}{draw(pad)}" for u, v in edges]
    m = len(lines)
    small = st.integers(0, max(n, 1))
    mutation = draw(st.sampled_from([
        "none", "blank", "one_token", "three_tokens", "non_integer", "u_ge_v", "v_ge_n",
        "repeat", "trailing_text", "trailing_blank", "m_plus", "m_minus",
    ]))
    bad = None
    if mutation == "blank":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t "])))
    elif mutation == "one_token":
        bad = str(draw(small))
    elif mutation == "three_tokens":
        bad = f"{draw(small)} {draw(small)} {draw(small)}"
    elif mutation == "non_integer":
        bad = draw(st.sampled_from(["x 1", "0 1.0", "0 0x1", "1e0 2", "- 1", "0 1#", "0,1"]))
    elif mutation == "u_ge_v":
        u = draw(small)
        bad = f"{u} {draw(st.integers(0, u))}"
    elif mutation == "v_ge_n":
        bad = f"0 {n + draw(st.integers(0, 3))}"
    elif mutation == "repeat" and lines:
        bad = draw(st.sampled_from(lines))
    elif mutation == "trailing_text":
        lines.append(draw(st.sampled_from(["0 1", "x", " 1"])))
    elif mutation == "trailing_blank":
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=3)))
    elif mutation == "m_plus":
        m += 1
    elif mutation == "m_minus" and m:
        m -= 1
    if bad is not None:
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            lines[at] = bad
        else:
            lines.insert(at, bad)
            m += 1
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([f"{n} {m}", *lines])
    return text + newline if draw(st.booleans()) else text


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

    @pytest.mark.parametrize("body", ["4 2\n0 1\n\n2 3\n", "4 2\n \n\t\n"])
    def test_rejects_blank_edge_line(self, tmp_path, body):
        path = tmp_path / "blank.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match="none may be blank"):
            read_graph(path)

    def test_rejects_missing_edge_lines(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("4 2\n0 1\n")
        with pytest.raises(ValueError, match="ends after 1 of its 2 edge lines"):
            read_graph(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("4 1\n0 1\n\n")
        assert read_graph(path).edge_count == 1

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(tmp_path / "nope.txt")

    @pytest.mark.parametrize(
        "body",
        ["100000000 0\n", "4 7\n", "-3 0\n", "4\n", "4 1 0\n", "x 0\n", "+4 0\n", ""],
    )
    def test_rejects_header(self, tmp_path, body):
        path = tmp_path / "head.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match="graph header"):
            read_graph(path)

    @pytest.mark.parametrize("chunk_chars", [3, 1 << 16])
    def test_reports_first_bad_line(self, tmp_path, chunk_chars):
        path = tmp_path / "bad.txt"
        path.write_text("5 4\n0 1\n1 2\n2 9\n3 1\n")
        with mock.patch.object(plantrec.io, "_CHUNK_CHARS", chunk_chars), pytest.raises(ValueError, match="edge line 4:"):
            read_graph(path)

    @pytest.mark.parametrize(
        "body",
        [
            "11 1\n+1 2\n",          # explicit sign
            "11 1\n1 1_0\n",         # digit separator
            "11 1\n1\x0b2\n",        # vertical tab between fields
            "11 1\n1\u00a02\n",      # no-break space
            "11 1\n1 \u0662\n",      # non-ASCII digit
        ],
    )
    def test_rejects_syntax_beyond_digits_spaces_tabs(self, tmp_path, body):
        path = tmp_path / "exotic.txt"
        path.write_bytes(body.encode())
        assert _reference_read_graph(path).edge_count == 1  # int() and str.split() take these
        with pytest.raises(ValueError):
            read_graph(path)


@pytest.fixture(scope="module")
def oracle_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "g.txt"


class TestGraphFormatAgainstOracle:
    @settings(max_examples=500, deadline=None)
    @given(graph_files(), st.sampled_from([1, 2, 3, 5, 8, 1 << 16]))
    def test_reader_matches_line_loop(self, oracle_path, text, chunk_chars):
        # small chunk sizes split the file into runs at every possible place
        oracle_path.write_bytes(text.encode())
        with mock.patch.object(plantrec.io, "_CHUNK_CHARS", chunk_chars):
            got = _outcome(read_graph, oracle_path)
        assert got == _outcome(_reference_read_graph, oracle_path)

    @pytest.mark.parametrize(
        "adj",
        [
            np.zeros((0, 0), dtype=np.uint8),
            np.zeros((1, 1), dtype=np.uint8),
            np.zeros((5, 5), dtype=np.uint8),
            (1 - np.eye(6)).astype(np.uint8),
        ],
        ids=["n0", "n1", "empty", "complete"],
    )
    def test_writer_bytes_on_edge_cases(self, tmp_path, adj):
        self._assert_same_bytes(tmp_path, Graph(adj=adj))

    # the last file spans several of the reader's runs
    @pytest.mark.parametrize(
        "n,s,p,q,seed", [(20, 5, 0.7, 0.2, 2), (31, 31, 0.5, 0.4, 7), (120, 40, 0.9, 0.1, 3), (400, 200, 0.6, 0.4, 5)]
    )
    def test_writer_bytes_on_sampled_graphs(self, tmp_path, n, s, p, q, seed):
        g = sample_graph(make_partition(n, s), ModelParams(p=p, q=q, seed=seed))
        self._assert_same_bytes(tmp_path, g)

    @staticmethod
    def _assert_same_bytes(tmp_path, g):
        write_graph(tmp_path / "new.txt", g)
        _reference_write_graph(tmp_path / "old.txt", g)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
        assert (read_graph(tmp_path / "new.txt").adj == g.adj).all()


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

    # ids are plain ASCII digits, as graph numbers are; and an id of n or
    # more cannot be one of k <= n clusters, so it is rejected before it
    # sizes any count
    @pytest.mark.parametrize(
        "body",
        [
            "+1 0 1 0\n", "-1 0 1 0\n", "1_0 0\n", "\u0661 0 1 0\n",
            "4 0 1 0\n", "10000000000 0 1 0\n", "99999999999999999999 0 1 0\n",
        ],
    )
    def test_rejects_bad_ids(self, tmp_path, body):
        path = tmp_path / "p.txt"
        path.write_bytes(body.encode())
        with pytest.raises(ValueError):
            read_partition(path)


class TestReportsCsv:
    def test_columns_and_values(self):
        rep = BoundReport.of("norm_deviation", 1.5, 2.0, n=10, k=2, s=5, p=0.8, q=0.2, seed=3, mask=5)
        buf = stdio.StringIO()
        write_reports_csv(buf, [rep])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "name,lhs,rhs,satisfied,n,k,s,p,q,seed,J_or_S"
        assert lines[1] == "norm_deviation,1.5,2.0,true,10,2,5,0.8,0.2,3,0x5"

    def test_numpy_floats_written_as_the_floats_they_are(self):
        # np.float64 is a float whose repr names its type; np.float32(0.8) is
        # 0.800000011920929 as the float the model compares against
        def text(p, q, lhs):
            buf = stdio.StringIO()
            write_reports_csv(buf, [BoundReport.of("fk_submatrix", lhs, 2.0, n=10, p=p, q=q, seed=3)])
            return buf.getvalue()

        assert text(np.float64(0.8), np.float64(0.2), np.float64(1.5)) == text(0.8, 0.2, 1.5)
        assert text(np.float32(0.8), 0.2, 1.5) == text(0.800000011920929, 0.2, 1.5)

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
