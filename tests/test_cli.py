import json

import pytest

from plantrec.cli import main


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

    def test_invalid_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [12], "k": [5], "p": [0.9], "q": [0.1]}))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2

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
