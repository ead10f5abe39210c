"""Command line interface.

Three subcommands: ``simulate`` runs a Monte Carlo study of a catalog
scenario, ``analyze`` evaluates all indexes on a curve file, and ``roc``
writes the sampled ROC curve of one index fitted on a curve file.  All
three evaluate through ``harness.evaluate``: ``roc`` is ``analyze`` of one
index with its ROC row kept, and raises that index's fit error.

Each option stores under the name of the ``ScenarioSpec`` or ``RunConfig``
field it sets, and an option left out is not stored at all, so the
dataclass default applies: study defaults are declared there, not here.

Exit codes: 0 on success, 2 on configuration or parse errors, 3 on
numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

from .errors import FuncrocError, NumericalDegeneracyError
from .harness import (
    INDEX_NAMES,
    RunConfig,
    emit_report,
    evaluate,
    ingest_curves,
    roc_export_rows,
    run_study,
    write_report,
)
from .rocmetrics import default_p_grid
from .simulation import SCENARIO_NAMES, ScenarioSpec

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_indexes(text: str) -> tuple[str, ...]:
    """Split a comma list of index names; RunConfig validates the names."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Every option, declared once.  ``dest`` is the field the option sets and
# ``metavar`` the name the flag itself gives.  Each subcommand lists its
# options in its own order; argparse parent parsers would put theirs first.
_OPTIONS = {
    "--scenario": dict(dest="name", required=True, choices=SCENARIO_NAMES),
    "--rho": dict(type=float, help="covariance ratio (P0/P1 only)"),
    "--process": dict(choices=("brownian", "expvar"), help="base process for P0/P1"),
    "--nd": dict(dest="n_d", metavar="ND", type=int, required=True, help="diseased sample size"),
    "--nh": dict(dest="n_h", metavar="NH", type=int, required=True, help="healthy sample size"),
    "--reps": dict(type=int),
    "--seed": dict(type=int, required=True),
    "--grid-size": dict(type=int),
    "--input": dict(dest="scenario", metavar="INPUT", required=True, help="curve file"),
    "--index": dict(required=True, choices=INDEX_NAMES),
    "--indexes": dict(type=_parse_indexes, help="comma-separated index names"),
    "--var-fraction": dict(type=float),
    "--lambda": dict(dest="penalty_lambda", type=float),
    "--ridge": dict(type=float),
    "--flip": dict(dest="flip_orientation", action="store_true",
                   help="report 1-AUC with swapped groups when AUC < 0.5"),
    "--p-grid-size": dict(type=int),
    "--export-roc": dict(help="write per-index ROC samples to this CSV"),
    "--out": dict(help="write the output here (.json selects a JSON report)"),
}
_FIT_OPTIONS = ("--indexes", "--var-fraction", "--lambda", "--ridge", "--flip")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="funcroc",
                                     description="ROC analysis of functional biomarkers")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *flags, required=()):
        cmd = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in flags:
            options = _OPTIONS[flag]
            cmd.add_argument(flag, **dict(options, required=True) if flag in required else options)
        cmd.set_defaults(run=run)
        return cmd

    command("simulate", _study, "run a Monte Carlo study of a catalog scenario",
            "--scenario", "--rho", "--process", "--nd", "--nh", "--reps", "--seed",
            "--grid-size", *_FIT_OPTIONS, "--out")
    command("analyze", _study, "evaluate indexes on a curve file",
            "--input", *_FIT_OPTIONS, "--export-roc", "--out").set_defaults(reps=1)
    command("roc", _roc, "write one index's sampled ROC curve",
            "--input", "--index", "--out", "--var-fraction", "--lambda", "--ridge", "--flip",
            "--p-grid-size", required=("--out",))
    return parser


def _fields_of(cls, values: dict) -> dict:
    """The given options that name a field of the dataclass ``cls``."""
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _study(values: dict) -> int:
    """``simulate`` (a catalog scenario) and ``analyze`` (a curve file)."""
    if "scenario" not in values:
        values["scenario"] = ScenarioSpec(**_fields_of(ScenarioSpec, values))
    export_roc = values.get("export_roc")
    report = run_study(RunConfig(**_fields_of(RunConfig, values), keep_roc=export_roc is not None))
    sys.stdout.write(emit_report(report, "table-text").decode("utf-8"))
    if export_roc:
        _write_csv(export_roc, ["index", "p", "roc"], roc_export_rows(report))
    if values.get("out"):
        write_report(report, values["out"])
    return 0


def _roc(values: dict) -> int:
    """``roc``: one index evaluated as ``analyze`` evaluates it; a failed fit raises its error."""
    d, h = ingest_curves(values["scenario"])
    name = values["index"]
    config = RunConfig(**_fields_of(RunConfig, values), indexes=(name,), keep_roc=True)
    result = evaluate(d, h, config)
    if name in result.errors:
        raise result.errors[name]
    rows = zip(default_p_grid(config.p_grid_size), result.roc_values[name])
    _write_csv(values["out"], ["p", "roc"], ([f"{p:.6f}", f"{value:.6f}"] for p, value in rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our config code
        return int(exc.code or 0)
    try:
        return args.run(vars(args))
    except NumericalDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FuncrocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
