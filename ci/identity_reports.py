"""Write a fixed set of seeded reports and CLI outputs, one file per case.

A refactor that claims to change no number proves it by running this script
on both checkouts and comparing the two directories:

    PYTHONPATH=<parent checkout>/src python ci/identity_reports.py /tmp/ids-parent
    PYTHONPATH=<changed checkout>/src python ci/identity_reports.py /tmp/ids-change
    diff -r /tmp/ids-parent /tmp/ids-change

Run the same copy of this script both times.  It uses only API that has
been stable across refactors (``RunConfig``, ``ScenarioSpec``, ``run_study``,
``analyze``, ``ingest_curves``, ``emit_report``, ``generate_scenario`` and
``funcroc.cli.main``).  Run both sides with the same BLAS threading; CI pins
it to one thread (``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``).  Wall
times are taken out: ``elapsed_seconds`` is zeroed in the JSON reports and
its line dropped from the text tables.  The curve files the script analyzes
are written under ``OUTDIR/inputs``, so they are compared too.

Cases:
- study reports of P1, P0 (rho=2, 30+250), C20, D20 (m=400), D21, P1 3+3
  (a partial quadratic failure) and D20 3+60 (every fitted index fails), 4
  replications each, with lambda 0/0.5, var_fraction 0.95/1.0 and the
  orientation flip off/on, plus one with ridge 0.1 (lambda 0, var_fraction
  0.95, flip off), as JSON with the ROC samples kept;
- ``analyze`` of a seeded C20 curve file at lambda 0 and 0.5, and at ridge
  0.1, as JSON;
- the stdout, stderr, exit code and written files of CLI runs: ``simulate``,
  ``analyze`` (plain, ``--lambda 0.5``, ``--flip``, ``--lambda -1``,
  ``--ridge 0.1``, ``--ridge -1``) on the seeded file and on a file whose two
  groups are identical, ``analyze`` of three bad headers, and ``roc`` of all
  six indexes, and of ``quad`` with ``--ridge 0.1``, on both files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import os
import sys
from pathlib import Path

from funcroc import (
    INDEX_NAMES,
    RunConfig,
    ScenarioSpec,
    analyze,
    emit_report,
    generate_scenario,
    ingest_curves,
    run_study,
)
from funcroc.cli import main as cli_main

STUDIES = {
    "P1-25+25-m20": ScenarioSpec(name="P1", n_d=25, n_h=25, seed=11, rho=1.0, grid_size=20),
    "P0-30+250-m40": ScenarioSpec(name="P0", n_d=30, n_h=250, seed=12, rho=2.0, grid_size=40),
    "C20-6+8-m20": ScenarioSpec(name="C20", n_d=6, n_h=8, seed=13, grid_size=20),
    "D20-40+40-m400": ScenarioSpec(name="D20", n_d=40, n_h=40, seed=14, grid_size=400),
    "D21-25+25-m30": ScenarioSpec(name="D21", n_d=25, n_h=25, seed=15, grid_size=30),
    "P1-3+3-m15": ScenarioSpec(name="P1", n_d=3, n_h=3, seed=16, rho=1.0, grid_size=15),
    "D20-3+60-m40": ScenarioSpec(name="D20", n_d=3, n_h=60, seed=17, grid_size=40),
}
FITS = list(itertools.product((0.0, 0.5), (0.95, 1.0), (False, True)))
BAD_HEADERS = {
    "unsorted": "label,0.5,0.25,0.75\nD,1,2,3\nH,0,1,2\n",
    "outside-unit-interval": "label,0.5,1.5\nD,1,2\nH,0,1\n",
    "single-point": "label,0.5\nD,1\nH,0\n",
}


def _json(report) -> bytes:
    return emit_report(dataclasses.replace(report, elapsed_seconds=0.0), "machine-readable")


def _write_curves(path: Path, spec: ScenarioSpec) -> None:
    d, h = generate_scenario(spec)
    lines = ["label," + ",".join(map(repr, d.grid.points.tolist()))]
    for label, sample in (("D", d), ("H", h)):
        lines += [label + "," + ",".join(map(repr, row)) for row in sample.values.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cli(name: str, argv: list[str]) -> None:
    """Record one CLI run: its exit code, stdout without the wall time, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    stdout = "".join(line for line in out.getvalue().splitlines(keepends=True)
                     if not line.startswith("elapsed_seconds:"))
    Path(f"cli-{name}.txt").write_text(
        f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}",
        encoding="utf-8",
    )


def main(outdir: str) -> int:
    root = Path(outdir)
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    # relative paths keep the output directory's name out of every message
    os.chdir(root)
    for (name, spec), (penalty, fraction, flip) in itertools.product(STUDIES.items(), FITS):
        config = RunConfig(scenario=spec, reps=4, penalty_lambda=penalty, var_fraction=fraction,
                           flip_orientation=flip, keep_roc=True)
        Path(f"study-{name}-lambda{penalty}-vf{fraction}-flip{int(flip)}.json").write_bytes(
            _json(run_study(config)))
    for name, spec in STUDIES.items():
        config = RunConfig(scenario=spec, reps=4, ridge=0.1, keep_roc=True)
        Path(f"study-{name}-ridge0.1.json").write_bytes(_json(run_study(config)))

    seeded, same = "inputs/C20-30+40-m20.csv", "inputs/same.csv"
    _write_curves(Path(seeded), ScenarioSpec(name="C20", n_d=30, n_h=40, seed=21, grid_size=20))
    Path(same).write_text("label,0.5,1.0\nD,1.0,2.0\nH,1.0,2.0\n", encoding="utf-8")
    d, h = ingest_curves(seeded)
    for penalty in (0.0, 0.5):
        config = RunConfig(scenario=seeded, reps=1, penalty_lambda=penalty, keep_roc=True)
        Path(f"analyze-lambda{penalty}.json").write_bytes(_json(analyze(d, h, config)))
    config = RunConfig(scenario=seeded, reps=1, ridge=0.1, keep_roc=True)
    Path("analyze-ridge0.1.json").write_bytes(_json(analyze(d, h, config)))

    _cli("simulate-P1", ["simulate", "--scenario", "P1", "--rho", "1", "--nd", "10", "--nh", "10",
                         "--reps", "2", "--seed", "1", "--grid-size", "10"])
    _cli("simulate-P0", ["simulate", "--scenario", "P0", "--rho", "2", "--nd", "12", "--nh", "20",
                         "--reps", "3", "--seed", "2", "--grid-size", "25", "--lambda", "0.5",
                         "--flip"])
    for label, path in (("seeded", seeded), ("same", same)):
        for variant, options in (("plain", []), ("lambda0.5", ["--lambda", "0.5"]),
                                 ("flip", ["--flip"]), ("lambda-1", ["--lambda", "-1"]),
                                 ("ridge0.1", ["--ridge", "0.1"]), ("ridge-1", ["--ridge", "-1"])):
            _cli(f"analyze-{label}-{variant}", ["analyze", "--input", path, *options])
        for index in INDEX_NAMES:
            _cli(f"roc-{label}-{index}",
                 ["roc", "--input", path, "--index", index, "--out", f"roc-{label}-{index}.csv"])
        _cli(f"roc-{label}-quad-ridge0.1", ["roc", "--input", path, "--index", "quad", "--ridge",
                                            "0.1", "--out", f"roc-{label}-quad-ridge0.1.csv"])
    for label, text in BAD_HEADERS.items():
        path = f"inputs/bad-{label}.csv"
        Path(path).write_text(text, encoding="utf-8")
        _cli(f"analyze-bad-{label}", ["analyze", "--input", path])
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python ci/identity_reports.py OUTDIR")
    sys.exit(main(sys.argv[1]))
