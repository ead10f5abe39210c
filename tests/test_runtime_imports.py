"""funcroc runs on numpy alone: studies, analyses, the CLI, the binormal oracles and the
test suite's direction oracles all run with every scipy import blocked.  scipy is a test
dependency only, an independent reference for the other test modules.  Importing funcroc
and its CLI, or reading the first large curve file of a process, loads neither
``subprocess`` nor the helper-process module."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Runs in a fresh interpreter, so no other test's imports leak into sys.modules.
SCRIPT = textwrap.dedent("""
    import json
    import math
    import sys

    sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError

    import numpy as np

    import funcroc
    import funcroc.cli
    from funcroc import INDEX_NAMES, RunConfig, ScenarioSpec, generate_scenario, run_study

    def scipy_modules():
        return sorted(name for name, module in sys.modules.items()
                      if module is not None and (name == "scipy" or name.startswith("scipy.")))

    def lazy_modules():
        return [name for name in ("subprocess", "funcroc._helper") if name in sys.modules]

    def write_curves(path, d, h):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("label," + ",".join(map(repr, d.grid.points.tolist())) + "\\n")
            for label, sample in (("D", d), ("H", h)):
                for row in sample.values.tolist():
                    handle.write(label + "," + ",".join(map(repr, row)) + "\\n")

    out = {"after_import": scipy_modules(), "n_ok": {}, "exit_codes": [],
           "lazy_after_import": lazy_modules()}
    # a study or a process's second large curve file loads the helper-process module;
    # the first large file, of more than one 64 KiB chunk, does not
    workdir = sys.argv[1]
    write_curves(f"{workdir}/large.csv", *generate_scenario(
        ScenarioSpec(name="C20", n_d=200, n_h=200, seed=3, grid_size=20)))
    funcroc.ingest_curves(f"{workdir}/large.csv")
    out["lazy_after_large_ingest"] = lazy_modules()
    # N >= m (the m x m pooled kernel) and N < m (the N x N Gram form)
    for spec in (ScenarioSpec(name="P1", n_d=30, n_h=30, seed=1, rho=1.0, grid_size=20),
                 ScenarioSpec(name="C20", n_d=15, n_h=15, seed=1, grid_size=60)):
        report = run_study(RunConfig(scenario=spec, indexes=INDEX_NAMES, reps=3))
        out["n_ok"][spec.name] = {name: report.per_index[name]["n_ok"] for name in INDEX_NAMES}

    write_curves(f"{workdir}/curves.csv", *generate_scenario(
        ScenarioSpec(name="C20", n_d=20, n_h=25, seed=2, grid_size=15)))
    for argv in (["analyze", "--input", f"{workdir}/curves.csv", "--lambda", "0.5",
                  "--export-roc", f"{workdir}/roc_samples.csv", "--out", f"{workdir}/report.json"],
                 ["roc", "--input", f"{workdir}/curves.csv", "--index", "quad",
                  "--out", f"{workdir}/roc.csv"]):
        out["exit_codes"].append(funcroc.cli.main(argv))
    out["after_runs"] = scipy_modules()

    from funcroc import GaussianPair, auc_of_direction, binormal_roc
    from reference import optimal_auc_direction, youden_direction

    pair = GaussianPair(np.ones(2), np.zeros(2), np.eye(2), np.eye(2))
    # both direction oracles solve on numpy's Cholesky, as the linear fit does
    out["directions"] = [optimal_auc_direction(pair).tolist(), youden_direction(pair).tolist()]

    def phi(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    # separation 1 over spread sqrt(2): AUC = Phi(1/sqrt(2)); unit deviations in both
    # groups: ROC(p) = Phi(1 + Phi^-1(p)), so p = Phi(z) maps to Phi(1 + z)
    out["oracle_auc"] = [auc_of_direction(pair, [1.0, 0.0]), phi(0.5**0.5)]
    out["oracle_roc_scalar"] = [binormal_roc(pair, [1.0, 0.0], 0.5), phi(1.0)]
    out["oracle_roc_array"] = [binormal_roc(pair, [1.0, 0.0], [phi(-1.0), 0.5, phi(1.0)]).tolist(),
                               [phi(0.0), phi(1.0), phi(2.0)]]
    out["after_oracles"] = scipy_modules()
    print(json.dumps(out))
""")


def test_studies_analyses_and_cli_load_no_scipy_module(tmp_path):
    env = dict(os.environ)
    # the direction oracles are test references, imported from tests/reference.py
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["after_import"] == []
    assert out["lazy_after_import"] == []
    assert (tmp_path / "large.csv").stat().st_size > 2 * 65_536
    assert out["lazy_after_large_ingest"] == []
    assert out["after_runs"] == []
    assert out["after_oracles"] == []
    for direction in out["directions"]:
        assert direction == pytest.approx([0.5**0.5, 0.5**0.5], rel=1e-15)
    assert out["exit_codes"] == [0, 0]
    # every fitter ran, so each eigensolve and Cholesky route was exercised
    for scenario, n_ok in out["n_ok"].items():
        assert all(count > 0 for count in n_ok.values()), (scenario, n_ok)
    for oracle in ("oracle_auc", "oracle_roc_scalar", "oracle_roc_array"):
        value, expected = out[oracle]
        assert value == pytest.approx(expected, rel=1e-14), oracle
