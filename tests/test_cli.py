import io
import json

import numpy as np
import pytest

import plantrec.model
from plantrec import spectral
from plantrec.cli import main
from plantrec.experiment import KNOWN_CHECKS, run_checks
from plantrec.io import read_graph, read_partition, write_reports_csv
from plantrec.model import ModelParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerateRecover:
    def test_roundtrip_noiseless(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        truth = tmp_path / "t.txt"
        code, _, _ = run_cli(
            capsys, "generate", "--n", "12", "--s", "4", "--p", "1.0", "--q", "0.0",
            "--seed", "3", "--out", str(graph), "--truth", str(truth),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "recover", "--graph", str(graph), "--s", "4", "--truth", str(truth)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == 4
        assert payload["exact"] is True
        assert payload["leftover"] == []
        assert sorted(map(sorted, payload["clusters"])) == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11],
        ]

    def test_recover_without_truth(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        truth = tmp_path / "t.txt"
        run_cli(
            capsys, "generate", "--n", "8", "--s", "4", "--p", "0.9", "--q", "0.1",
            "--seed", "1", "--out", str(graph), "--truth", str(truth),
        )
        code, out, _ = run_cli(capsys, "recover", "--graph", str(graph), "--s", "4")
        assert code == 0
        assert "exact" not in json.loads(out)

    def test_generate_invalid_params_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate", "--n", "12", "--s", "5", "--p", "0.9", "--q", "0.1",
            "--out", str(tmp_path / "g"), "--truth", str(tmp_path / "t"),
        )
        assert code == 2
        assert "invalid" in err

    @pytest.mark.parametrize("body", ["4 3\n0 1\n0 1\n2 3\n", "4 1\n0 1\n2 3\n"])
    def test_malformed_graph_exit_2(self, capsys, tmp_path, body):
        graph = tmp_path / "g.txt"
        graph.write_text(body)
        code, _, err = run_cli(capsys, "recover", "--graph", str(graph), "--s", "2")
        assert code == 2
        assert "invalid input" in err

    def test_missing_graph_exit_3(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "recover", "--graph", str(tmp_path / "nope"), "--s", "2")
        assert code == 3

    # headers rejected before the n x n adjacency is allocated; none of these may allocate
    @pytest.mark.parametrize("header", ["100000000 0", "4 7", "-3 0"])
    def test_bad_header_exit_2(self, capsys, tmp_path, header):
        graph = tmp_path / "g.txt"
        graph.write_text(header + "\n")
        code, _, err = run_cli(capsys, "recover", "--graph", str(graph), "--s", "2")
        assert code == 2
        assert err.startswith("invalid input: graph header")
        assert "Traceback" not in err

    def test_failed_allocation_exit_3(self, capsys, tmp_path, monkeypatch):
        graph = tmp_path / "g.txt"
        graph.write_text("4 1\n0 1\n")

        def no_memory(g, s):
            raise MemoryError("Unable to allocate 8.88 PiB")

        monkeypatch.setattr("plantrec.cli.identify_clusters", no_memory)
        code, _, err = run_cli(capsys, "recover", "--graph", str(graph), "--s", "2")
        assert code == 3
        assert err == "out of memory: Unable to allocate 8.88 PiB\n"


class TestVerify:
    @pytest.fixture()
    def instance(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        truth = tmp_path / "t.txt"
        run_cli(
            capsys, "generate", "--n", "40", "--s", "10", "--p", "0.8", "--q", "0.2",
            "--seed", "5", "--out", str(graph), "--truth", str(truth),
        )
        return graph, truth

    def test_default_checks_to_stdout(self, capsys, instance):
        graph, truth = instance
        code, out, _ = run_cli(
            capsys, "verify", "--graph", str(graph), "--truth", str(truth),
            "--p", "0.8", "--q", "0.2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name,lhs,rhs,satisfied")
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"norm_deviation", "projector_deviation", "concentration"} <= names

    def test_fk_and_goodcol_to_file(self, capsys, instance, tmp_path):
        graph, truth = instance
        out_csv = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--graph", str(graph), "--truth", str(truth),
            "--p", "0.8", "--q", "0.2", "--checks", "fk,goodcol",
            "--epsilon", "0.1", "--out", str(out_csv),
        )
        assert code == 0
        text = out_csv.read_text().splitlines()
        names = [line.split(",")[0] for line in text[1:]]
        assert names.count("fk_submatrix") == 15
        assert names.count("good_column") == 1

    def test_unknown_check_exit_2(self, capsys, instance):
        graph, truth = instance
        code, _, _ = run_cli(
            capsys, "verify", "--graph", str(graph), "--truth", str(truth),
            "--p", "0.8", "--q", "0.2", "--checks", "nope",
        )
        assert code == 2

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "-0.5", "0"])
    def test_non_finite_or_non_positive_epsilon_exit_2(self, capsys, instance, epsilon):
        graph, truth = instance
        code, out, err = run_cli(
            capsys, "verify", "--graph", str(graph), "--truth", str(truth),
            "--p", "0.8", "--q", "0.2", "--checks", "conc", "--epsilon", epsilon,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input: epsilon")

    # checks that read no epsilon and no projector solve nothing but their
    # norms: fk the 14 proper unions of 4 clusters, and A - E once in place
    @pytest.mark.parametrize(
        "checks,epsilon,top_calls,value_calls",
        [("norm", "auto", 0, 1), ("fk", "auto", 0, 15), ("conc", "0.1", 0, 0),
         ("conc", "auto", 1, 0), ("norm,proj,goodcol", "auto", 1, 1)],
    )
    def test_solves_only_what_the_checks_read(
        self, capsys, instance, monkeypatch, checks, epsilon, top_calls, value_calls
    ):
        graph, truth = instance
        log = []

        def counted(module, attr, name):
            solver = getattr(module, attr)

            def call(*args):
                log.append(name)  # one atomic append, also from the FK worker threads
                return solver(*args)

            monkeypatch.setattr(module, attr, call)

        counted(spectral, "_solve_top", "top")
        counted(spectral, "_solve_values", "values")
        counted(np.linalg, "eigh", "eigh")
        counted(np.linalg, "eigvalsh", "eigvalsh")
        code, _, err = run_cli(
            capsys, "verify", "--graph", str(graph), "--truth", str(truth),
            "--p", "0.8", "--q", "0.2", "--checks", checks, "--epsilon", epsilon,
        )
        assert code == 0, err
        # a full solve runs only inside the top-r one, where LAPACK has no
        # dsyevr, and eigvalsh only inside a values solve, where it has no dsyevd
        full_calls = 0 if spectral._DSYEVR else top_calls
        eigvalsh_calls = 0 if spectral._DSYEVD else value_calls
        calls = {name: log.count(name) for name in ("top", "eigh", "values", "eigvalsh")}
        assert calls == {
            "top": top_calls, "eigh": full_calls, "values": value_calls, "eigvalsh": eigvalsh_calls
        }

    def test_csv_is_the_pipelines_reports(self, capsys, instance, tmp_path):
        graph, truth = instance
        out_csv = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys, "verify", "--graph", str(graph), "--truth", str(truth),
            "--p", "0.8", "--q", "0.2", "--checks", ",".join(KNOWN_CHECKS),
            "--seed", "7", "--out", str(out_csv),
        )
        assert code == 0, err
        want = io.StringIO()
        reports = run_checks(
            read_graph(graph), read_partition(truth), ModelParams(p=0.8, q=0.2, seed=7),
            KNOWN_CHECKS, None,
        )
        write_reports_csv(want, reports)
        assert out_csv.read_text() == want.getvalue()


class TestExperiment:
    def test_small_grid(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": [12], "k": [2], "p": [0.9], "q": [0.1],
            "trials": 2, "seed0": 4, "checks": ["norm"],
        }))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 0
        assert "success=" in out
        assert (out_dir / "trials.jsonl").exists()
        assert (out_dir / "bounds.csv").exists()
        assert (out_dir / "aggregate.csv").exists()

    def test_fk_check_with_70_clusters(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": [140], "k": [70], "p": [0.9], "q": [0.1],
            "trials": 1, "seed0": 2, "checks": ["fk"],
        }))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0, err
        rows = (out_dir / "bounds.csv").read_text().splitlines()[1:]
        assert len(rows) == 4096
        assert max(int(row.rsplit(",", 1)[1], 16) for row in rows).bit_length() <= 70

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, capsys, tmp_path, jobs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [12], "k": [2], "p": [0.9], "q": [0.1]}))
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", jobs
        )
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: jobs")
        assert not (tmp_path / "o").exists()

    def test_invalid_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [12], "k": [5], "p": [0.9], "q": [0.1]}))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        # values of the wrong JSON type: none is converted, truncated or
        # read as true, and none reaches the grid
        base = {"n": [12], "k": [2], "p": [0.9], "q": [0.1]}
        for raw in (
            {**base, "p": [None]},
            {**base, "checks": 5},
            7,
            {**base, "out": 5},
            {**base, "n": [10.9]},
            {**base, "epsilon": True},
            {**base, "baseline": "no"},
            # n below 1; with s = 3, 0 % 3 == 0 would give k = 0 and a trial with no round
            {"n": [0], "s": [3], "p": [0.7], "q": [0.3]},
            {"n": [0], "k": [3], "p": [0.7], "q": [0.3]},
            {"n": [-6], "k": [3], "p": [0.7], "q": [0.3]},
            {"n": [-6], "s": [3], "p": [0.7], "q": [0.3]},
        ):
            cfg.write_text(json.dumps(raw))
            code, _, err = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
            assert (code, err.startswith("invalid input: config")) == (2, True), raw
            assert not (tmp_path / "o").exists()

    def test_unknown_option_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [12], "k": [2], "p": [0.9], "q": [0.1]}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o"), "--emit-plot-data"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_nan_epsilon_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        # json.dumps writes NaN, which json.load reads back
        cfg.write_text(json.dumps({
            "n": [12], "k": [2], "p": [0.9], "q": [0.1], "checks": ["conc"], "epsilon": float("nan"),
        }))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("invalid input: epsilon")
        assert not out_dir.exists()

    def test_out_dir_from_config(self, capsys, tmp_path):
        out_dir = tmp_path / "from_config"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": [8], "k": [2], "p": [0.9], "q": [0.1], "trials": 1,
            "out": str(out_dir),
        }))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert (out_dir / "aggregate.csv").exists()

    def test_no_out_anywhere_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [8], "k": [2], "p": [0.9], "q": [0.1]}))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2


class TestAdjacencyOverMemory:
    """An n whose n x n byte adjacency exceeds physical memory is invalid
    input, rejected before anything of size n is allocated: with 8 GiB of
    memory, n = 200000 (40 GB); with any memory, n = 10^8 (10^16 bytes)."""

    @pytest.fixture()
    def eight_gib(self, monkeypatch):
        monkeypatch.setattr(plantrec.model, "_physical_memory", lambda: 8 * 2**30)

    @pytest.fixture()
    def nothing_allocated(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("reached past the memory check")

        for name in ("plantrec.cli.make_partition", "plantrec.cli.run_grid"):
            monkeypatch.setattr(name, fail)

    @staticmethod
    def assert_one_invalid_input_line(err):
        assert err.startswith("invalid input: ")
        assert err.count("\n") == 1
        assert "adjacency needs" in err

    @pytest.mark.parametrize("n", [200_000, 10**8])
    def test_generate_exit_2(self, capsys, tmp_path, eight_gib, nothing_allocated, n):
        code, _, err = run_cli(
            capsys, "generate", "--n", str(n), "--s", "1000", "--p", "0.7", "--q", "0.3",
            "--out", str(tmp_path / "g"), "--truth", str(tmp_path / "t"),
        )
        assert code == 2
        self.assert_one_invalid_input_line(err)
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("n", [200_000, 10**8])
    def test_experiment_config_exit_2(self, capsys, tmp_path, eight_gib, nothing_allocated, n):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [800, n], "s": [200], "p": [0.7], "q": [0.3]}))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        self.assert_one_invalid_input_line(err)
        assert f"config n = {n}" in err
        assert not out_dir.exists()

    def test_within_memory_still_runs(self, capsys, tmp_path, monkeypatch):
        # the limit is n^2 bytes against the reported memory, nothing more
        monkeypatch.setattr(plantrec.model, "_physical_memory", lambda: 12 * 12)
        code, _, err = run_cli(
            capsys, "generate", "--n", "12", "--s", "4", "--p", "0.7", "--q", "0.3",
            "--out", str(tmp_path / "g"), "--truth", str(tmp_path / "t"),
        )
        assert code == 0, err
        monkeypatch.setattr(plantrec.model, "_physical_memory", lambda: 12 * 12 - 1)
        code, _, err = run_cli(capsys, "recover", "--graph", str(tmp_path / "g"), "--s", "4")
        assert code == 2
        assert err.startswith("invalid input: graph header: the 12 x 12 adjacency needs 144 bytes")


class TestConstants:
    def parse(self, out):
        values = {}
        for line in out.splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
        return values

    def test_unit_gap(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--p", "1.0", "--q", "0.0")
        assert code == 0
        values = self.parse(out)
        assert float(values["admissible_c"]) == 88.0
        assert float(values["c_prime"]) == 88.0
        assert float(values["epsilon"]) == 8.0 / (88.0 - 8.0)

    def test_half_gap(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--p", "0.75", "--q", "0.25")
        values = self.parse(out)
        assert float(values["admissible_c"]) == 288.0
        assert float(values["epsilon"]) == 8.0 / (0.5 * 288.0 - 8.0)

    def test_override_c(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--p", "1.0", "--q", "0.0", "--c", "100")
        values = self.parse(out)
        assert float(values["c"]) == 100.0
        assert float(values["epsilon"]) == 8.0 / (100.0 - 8.0)

    def test_degenerate_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "constants", "--p", "0.5", "--q", "0.5")
        assert code == 2

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0", "-3"])
    def test_non_finite_or_non_positive_c_exit_2(self, capsys, c):
        code, out, err = run_cli(capsys, "constants", "--p", "0.7", "--q", "0.2", f"--c={c}")
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input: c must be finite and positive")
