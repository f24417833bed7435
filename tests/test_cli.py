import json

import pytest

from syncmesh import bench
from syncmesh.bench import parse_results_csv
from syncmesh.cli import main


class TestGen:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["gen", "--sensors", "4", "--days", "2", "--rate", "12",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("\n") - 1 == 4 * 2 * 12

    def test_a_rate_above_one_reading_a_second_exits_1(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["gen", "--sensors", "1", "--days", "1", "--rate", "86401",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: at most 86400")
        assert not out.exists()

    def test_gen_then_run_from_file(self, tmp_path):
        data = tmp_path / "data.csv"
        main(["gen", "--sensors", "6", "--days", "2", "--rate", "24",
              "--seed", "5", "--out", str(data)])
        out = tmp_path / "result.csv"
        code = main(["run", "--system", "central", "--scenario", "collect",
                     "--nodes", "3", "--days", "1", "--reps", "1", "--seed", "1",
                     "--dataset", str(data), "--out", str(out),
                     "--unsafe-params"])
        assert code == 0
        rows, summaries = parse_results_csv(out.read_text())
        assert len(rows) == 1 and len(summaries) == 1


class TestRun:
    def test_success_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["run", "--system", "syncmesh", "--scenario", "collect",
                     "--nodes", "3", "--days", "1", "--reps", "2", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        rows, summaries = parse_results_csv(out.read_text())
        assert len(rows) == 2
        assert rows[0]["partial"] is False

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["run", "--system", "sharded", "--scenario", "transform",
                     "--nodes", "3", "--days", "1", "--reps", "1", "--seed", "7",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["results"][0]["config"]["system"] == "sharded"

    def test_unknown_system_exits_1(self, tmp_path, capsys):
        code = main(["run", "--system", "warehouse", "--scenario", "collect",
                     "--nodes", "3", "--days", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_off_matrix_nodes_need_unsafe_flag(self, tmp_path):
        args = ["run", "--system", "syncmesh", "--scenario", "collect",
                "--nodes", "2", "--days", "1", "--reps", "1", "--seed", "0",
                "--out", str(tmp_path / "x.csv")]
        assert main(args) == 1
        assert main(args + ["--unsafe-params"]) == 0

    def test_missing_column_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sensor_id,lat,lon,timestamp,P1,P2,temperature\n")
        code = main(["run", "--system", "central", "--scenario", "collect",
                     "--nodes", "3", "--days", "1", "--reps", "1",
                     "--dataset", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "humidity" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path):
        code = main(["run", "--system", "syncmesh", "--scenario", "collect",
                     "--nodes", "3", "--days", "1", "--reps", "1", "--seed", "7",
                     "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        assert code == 2

    def test_bad_usage_exits_1(self, capsys):
        assert main(["run", "--system", "syncmesh"]) == 1
        assert main(["frobnicate"]) == 1

    def test_undecodable_dataset_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("sensor_id,lat\ns\xe9nsor,1\n".encode("latin-1"))
        code = main(["run", "--system", "central", "--scenario", "collect",
                     "--nodes", "3", "--days", "1", "--reps", "1",
                     "--dataset", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert err.count("\n") == 1


class TestMatrix:
    def test_reduced_matrix_writes_files(self, tmp_path):
        out = tmp_path / "m"
        code = main(["matrix", "--seed", "3", "--out", str(out),
                     "--systems", "syncmesh,central", "--scenarios", "collect",
                     "--sizes", "3", "--windows", "1", "--reps", "2", "--quiet"])
        assert code == 0
        rows, summaries = parse_results_csv((out / "matrix.csv").read_text())
        assert len(rows) == 4 and len(summaries) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert len(manifest["configs"]) == 2
        assert manifest["configs"][0]["node_configs"][0]["node_id"] == "node-00"

    @pytest.mark.parametrize("flag, value", [("--sizes", "x"),
                                             ("--windows", "1,a")])
    def test_a_list_that_is_not_integers_exits_1(self, tmp_path, capsys,
                                                 flag, value):
        code = main(["matrix", "--seed", "3", "--out", str(tmp_path / "m"),
                     "--quiet", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and value in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--systems", "syncmesh,central,foo"), ("--systems", ","),
        ("--scenarios", ","), ("--sizes", ","), ("--windows", ","),
    ])
    def test_a_bad_or_empty_grid_exits_1_before_any_run(
            self, tmp_path, capsys, monkeypatch, flag, value):
        """A bad value anywhere in the grid, or an empty list, is rejected
        before the first config runs, and nothing is written."""
        runs = []
        monkeypatch.setattr(bench, "run_scenario",
                            lambda *args, **kwargs: runs.append(args))
        code = main(["matrix", "--seed", "7", "--reps", "1", "--sizes", "3",
                     "--windows", "1,7", "--out", str(tmp_path / "m"),
                     "--quiet", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert runs == []
        assert not (tmp_path / "m").exists()
