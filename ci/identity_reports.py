"""Write a fixed set of seeded reports and CLI outputs, one file per case.

A refactor that claims to change no number proves it by running this script
on both checkouts and comparing the two directories:

    PYTHONPATH=<parent checkout>/src python ci/identity_reports.py /tmp/ids-parent
    PYTHONPATH=<changed checkout>/src python ci/identity_reports.py /tmp/ids-change
    diff -r /tmp/ids-parent /tmp/ids-change

``diff -r`` is the gate: a refactor that claims to change no number must
leave it empty.  A change that cannot be byte-identical quotes instead what

    PYTHONPATH=src python ci/identity_reports.py --compare /tmp/ids-parent /tmp/ids-change

prints: for each JSON file, the largest absolute difference of an AUC value
(a ``mean_auc``) and the largest relative difference of any other float.
Its last line reads ``no difference`` when every such difference is zero
and every file matched.  It exits 1 when a file exists on one side only, a
text file differs, or two JSON files differ in structure (keys, lengths,
types, or any value that is not a float), and 0 otherwise.

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
import json
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


def _float_gaps(a, b, key=None) -> tuple[float, float] | None:
    """(largest |a - b| of the AUC values, largest relative difference of the other
    floats) of two parsed JSON values, or None if they differ in anything but floats."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [_float_gaps(a[name], b[name], name) for name in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [_float_gaps(x, y, key) for x, y in zip(a, b)]
    elif isinstance(a, float) and isinstance(b, float):
        if key == "mean_auc":
            return abs(a - b), 0.0
        scale = max(abs(a), abs(b))
        return 0.0, (abs(a - b) / scale if scale else 0.0)
    else:
        return (0.0, 0.0) if type(a) is type(b) and a == b else None
    if None in parts:
        return None
    return max((p[0] for p in parts), default=0.0), max((p[1] for p in parts), default=0.0)


def compare(left: str, right: str) -> int:
    """Print how two identity sets differ; 1 if they differ in more than float values."""
    roots = Path(left), Path(right)
    files = [{path.relative_to(root) for path in root.rglob("*") if path.is_file()}
             for root in roots]
    status, worst = 0, (0.0, 0.0)
    for name in sorted(files[0] | files[1]):
        if name not in files[0] or name not in files[1]:
            print(f"{name}: only in {roots[name in files[1]]}")
            status = 1
            continue
        a, b = ((root / name).read_bytes() for root in roots)
        if name.suffix != ".json":
            if a != b:
                print(f"{name}: text differs")
                status = 1
            continue
        gaps = _float_gaps(json.loads(a), json.loads(b))
        if gaps is None:
            print(f"{name}: JSON differs in structure or in a value that is not a float")
            status = 1
            continue
        print(f"{name}: largest AUC difference {gaps[0]:.3g}, "
              f"largest relative difference {gaps[1]:.3g}")
        worst = max(worst[0], gaps[0]), max(worst[1], gaps[1])
    print("no difference" if status == 0 and worst == (0.0, 0.0) else "differences found")
    return status


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit("usage: python ci/identity_reports.py OUTDIR\n"
                 "       python ci/identity_reports.py --compare DIR_A DIR_B")
    sys.exit(main(sys.argv[1]))
