import csv
import json

import numpy as np
import pytest

from funcroc import FuncrocError, NumericalDegeneracyError, errors
from funcroc.cli import main
from funcroc.harness import FITTERS, INDEX_NAMES, RunConfig, _config_echo
from funcroc.simulation import ScenarioSpec

# the classes funcroc.errors defines, in definition order (parents before
# children); not FuncrocError.__subclasses__(), which also lists subclasses
# that other test modules define, so the table would depend on import order
ERROR_CLASSES = [value for value in vars(errors).values()
                 if isinstance(value, type) and issubclass(value, FuncrocError)]


@pytest.fixture
def curve_file(tmp_path):
    rng = np.random.default_rng(3)
    points = np.linspace(0.05, 1.0, 20)
    lines = ["label," + ",".join(f"{t:.4f}" for t in points)]
    for _ in range(15):
        values = np.cumsum(rng.standard_normal(20)) * 0.3 + 1.0
        lines.append("D," + ",".join(f"{v:.5f}" for v in values))
    for _ in range(18):
        values = np.cumsum(rng.standard_normal(20)) * 0.3
        lines.append("H," + ",".join(f"{v:.5f}" for v in values))
    path = tmp_path / "curves.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSimulateCommand:
    def test_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "simulate", "--scenario", "P1", "--rho", "1", "--nd", "20", "--nh", "20",
            "--reps", "3", "--seed", "7", "--grid-size", "15",
            "--indexes", "integral,meandiff", "--out", str(out),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "integral" in table and "meandiff" in table
        payload = json.loads(out.read_text())
        assert set(payload["per_index"]) == {"integral", "meandiff"}
        assert payload["replications"] == 3

    def test_a_json_suffix_in_any_case_writes_json(self, tmp_path):
        out = tmp_path / "R.JSON"
        assert main(["simulate", "--scenario", "P1", "--rho", "1", "--nd", "5", "--nh", "5",
                     "--reps", "1", "--seed", "1", "--grid-size", "10", "--indexes", "max",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["replications"] == 1

    def test_scenario_parameter_errors_exit_with_two(self, capsys):
        code = main([
            "simulate", "--scenario", "P0", "--rho", "1", "--nd", "10", "--nh", "10",
            "--reps", "2", "--seed", "7",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_index_exits_with_two(self):
        code = main([
            "simulate", "--scenario", "P1", "--rho", "1", "--nd", "10", "--nh", "10",
            "--reps", "2", "--seed", "7", "--indexes", "nope",
        ])
        assert code == 2

    def test_repeated_index_exits_with_two(self, capsys):
        code = main([
            "simulate", "--scenario", "P1", "--rho", "1", "--nd", "10", "--nh", "10",
            "--reps", "2", "--seed", "7", "--indexes", "max,max",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate index names: max\n"

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "nan"), ("--lambda", "inf"), ("--ridge", "nan"), ("--ridge", "inf"),
    ])
    def test_non_finite_penalty_or_ridge_exits_with_two(self, flag, value, capsys):
        code = main([
            "simulate", "--scenario", "P1", "--rho", "1", "--nd", "30", "--nh", "30",
            "--reps", "1", "--seed", "3", "--grid-size", "20", flag, value,
        ])
        assert code == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    def test_empty_index_list_exits_with_two(self, capsys):
        code = main([
            "simulate", "--scenario", "P1", "--rho", "1", "--nd", "10", "--nh", "10",
            "--reps", "2", "--seed", "7", "--indexes", " , ",
        ])
        assert code == 2
        assert "at least one index" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["nan", "inf"])
    def test_non_finite_rho_exits_with_two(self, rho, capsys):
        code = main(["simulate", "--scenario", "P1", "--rho", rho, "--nd", "10", "--nh", "10",
                     "--reps", "1", "--seed", "7"])
        assert code == 2
        assert capsys.readouterr().err == "error: P1 requires rho > 0\n"

    def test_omitted_options_take_the_dataclass_defaults(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["simulate", "--scenario", "C20", "--nd", "5", "--nh", "6", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        expected = _config_echo(RunConfig(scenario=ScenarioSpec("C20", n_d=5, n_h=6, seed=2)))
        assert json.loads(out.read_text())["config"] == expected

    def test_table_counts_failed_replications(self, capsys):
        # quad fits on one of the two draws; the other indexes fit on both
        code = main(["simulate", "--scenario", "C20", "--nd", "2", "--nh", "2", "--seed", "1",
                     "--reps", "2", "--grid-size", "2"])
        assert code == 0
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()
                if line.split()[:1] in (["index"], ["max"], ["quad"])}
        assert rows["index"][-2:] == ["ok", "failed"]
        assert rows["quad"][-2:] == ["1", "1"]
        assert rows["max"][-2:] == ["2", "0"]

    def test_usage_error_exits_with_two(self, capsys):
        code = main(["simulate", "--scenario", "NOPE", "--nd", "5", "--nh", "5",
                     "--seed", "1"])
        assert code == 2
        capsys.readouterr()


class TestAnalyzeCommand:
    def test_reports_and_exports_roc(self, curve_file, tmp_path, capsys):
        roc_path = tmp_path / "roc.csv"
        code = main([
            "analyze", "--input", str(curve_file),
            "--indexes", "max,integral", "--export-roc", str(roc_path),
        ])
        assert code == 0
        assert "integral" in capsys.readouterr().out
        with open(roc_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "p", "roc"]
        by_index = {}
        for name, _, _ in rows[1:]:
            by_index[name] = by_index.get(name, 0) + 1
        assert by_index == {"max": 101, "integral": 101}

    def test_omitted_options_take_the_dataclass_defaults(self, curve_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(curve_file), "--out", str(out)]) == 0
        capsys.readouterr()
        # an analysis is one pass, so it echoes reps 1 in place of the study default
        expected = _config_echo(RunConfig(scenario=str(curve_file), reps=1))
        assert json.loads(out.read_text())["config"] == expected

    def test_missing_file_exits_with_two(self, tmp_path):
        code = main(["analyze", "--input", str(tmp_path / "nothing.csv")])
        assert code == 2

    def test_parse_error_exits_with_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,0.5,1.0\nD,1.0,oops\nH,1,2\n", encoding="utf-8")
        code = main(["analyze", "--input", str(bad)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["r.json", "r.txt"])
    def test_unwritable_report_exits_with_two(self, curve_file, tmp_path, capsys, name):
        out = tmp_path / "missing" / name
        code = main(["analyze", "--input", str(curve_file), "--indexes", "max", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write report to {out}: ")


class TestRocCommand:
    def test_writes_probability_pairs(self, curve_file, tmp_path):
        out = tmp_path / "roc.csv"
        code = main([
            "roc", "--input", str(curve_file), "--index", "meandiff",
            "--out", str(out), "--p-grid-size", "51",
        ])
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p", "roc"]
        assert len(rows) == 52
        values = np.array([[float(a), float(b)] for a, b in rows[1:]])
        assert values[0, 0] == 0.0 and values[-1, 0] == 1.0
        assert np.all(np.diff(values[:, 1]) >= 0)

    def test_default_probability_grid_has_101_points(self, curve_file, tmp_path):
        out = tmp_path / "roc.csv"
        assert main(["roc", "--input", str(curve_file), "--index", "quad", "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p", "roc"]
        assert len(rows) == 102
        assert rows[1][0] == "0.000000" and rows[51][0] == "0.500000" and rows[-1][0] == "1.000000"

    def test_each_index_writes_its_rows_of_the_analyze_export(self, curve_file, tmp_path, capsys):
        export = tmp_path / "export.csv"
        assert main(["analyze", "--input", str(curve_file), "--export-roc", str(export)]) == 0
        capsys.readouterr()
        with open(export, newline="") as handle:
            exported = list(csv.reader(handle))[1:]
        for name in INDEX_NAMES:
            out = tmp_path / f"{name}.csv"
            assert main(["roc", "--input", str(curve_file), "--index", name, "--out", str(out)]) == 0
            with open(out, newline="") as handle:
                rows = list(csv.reader(handle))
            expected = [[f"{float(p):.6f}", f"{float(value):.6f}"]
                        for index, p, value in exported if index == name]
            assert len(expected) == 101, name
            assert rows == [["p", "roc"], *expected], name

    def test_penalty_and_flip_give_the_analyze_export_of_linear(self, curve_file, tmp_path,
                                                                 capsys):
        export, out, plain = (tmp_path / name for name in ("export.csv", "roc.csv", "plain.csv"))
        fit = ["--lambda", "0.5", "--flip"]
        assert main(["analyze", "--input", str(curve_file), *fit,
                     "--export-roc", str(export)]) == 0
        capsys.readouterr()
        assert main(["roc", "--input", str(curve_file), "--index", "linear", *fit,
                     "--out", str(out)]) == 0
        assert main(["roc", "--input", str(curve_file), "--index", "linear",
                     "--out", str(plain)]) == 0
        with open(export, newline="") as handle:
            expected = [[f"{float(p):.6f}", f"{float(value):.6f}"]
                        for index, p, value in list(csv.reader(handle))[1:] if index == "linear"]
        rows = []
        for path in (out, plain):
            with open(path, newline="") as handle:
                rows.append(list(csv.reader(handle)))
        assert len(expected) == 101
        assert rows[0] == [["p", "roc"], *expected]
        assert rows[1] != rows[0]  # the penalty moves the fitted direction

    def test_degenerate_direction_exits_with_three(self, tmp_path, capsys):
        # identical groups leave the mean-difference rule undefined
        lines = ["label,0.5,1.0", "D,1.0,2.0", "H,1.0,2.0"]
        path = tmp_path / "same.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["roc", "--input", str(path), "--index", "meandiff",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestExitCodes:
    def test_the_table_holds_both_kinds_of_error(self):
        assert {cls.__name__ for cls in ERROR_CLASSES} == {
            "FuncrocError", "GridMismatchError", "InsufficientSampleError",
            "InvalidKernelError", "CurveParseError", "NumericalDegeneracyError",
            "DegenerateDirectionError", "DegenerateOperatorError", "SingularSystemError",
            "SingularCovarianceError", "SimulationDegeneracyError",
        }
        assert len(ERROR_CLASSES) == 11

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_library_error_maps_to_its_exit_code(
        self, error, curve_file, tmp_path, monkeypatch, capsys
    ):
        exc = error("injected failure")

        def failing(ctx, config):
            raise exc

        monkeypatch.setitem(FITTERS, "max", failing)
        code = main(["roc", "--input", str(curve_file), "--index", "max",
                     "--out", str(tmp_path / "roc.csv")])
        assert code == (3 if issubclass(error, NumericalDegeneracyError) else 2)
        assert capsys.readouterr().err == f"error: {exc}\n"
