"""Command line interface.

Three subcommands: ``simulate`` runs a Monte Carlo study of a catalog
scenario, ``analyze`` evaluates all indexes on a curve file, and ``roc``
writes the sampled ROC curve of one index fitted on a curve file.

Exit codes: 0 on success, 2 on configuration or parse errors, 3 on
numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .errors import CurveParseError, FuncrocError, NumericalDegeneracyError
from .harness import (
    FITTERS,
    INDEX_NAMES,
    RunConfig,
    emit_report,
    ingest_curves,
    roc_export_rows,
    run_study,
    write_report,
)
from .indexes import FitContext
from .rocmetrics import default_p_grid, roc_curve, score_sample
from .simulation import SCENARIO_NAMES, ScenarioSpec

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_indexes(text: str) -> tuple[str, ...]:
    """Split a comma list of index names; RunConfig validates the names."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcroc",
        description="ROC analysis of functional biomarkers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study of a catalog scenario")
    sim.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    sim.add_argument("--rho", type=float, default=None,
                     help="covariance ratio (P0/P1 only)")
    sim.add_argument("--process", choices=("brownian", "expvar"), default=None,
                     help="base process for P0/P1")
    sim.add_argument("--nd", type=int, required=True, help="diseased sample size")
    sim.add_argument("--nh", type=int, required=True, help="healthy sample size")
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--grid-size", type=int, default=100)
    sim.add_argument("--indexes", default=",".join(INDEX_NAMES))
    sim.add_argument("--var-fraction", type=float, default=0.95)
    sim.add_argument("--lambda", dest="penalty_lambda", type=float, default=0.0)
    sim.add_argument("--ridge", type=float, default=0.0)
    sim.add_argument("--flip", action="store_true",
                     help="report 1-AUC with swapped groups when AUC < 0.5")
    sim.add_argument("--out", default=None,
                     help="write the report here (.json selects JSON)")

    ana = sub.add_parser("analyze", help="evaluate indexes on a curve file")
    ana.add_argument("--input", required=True)
    ana.add_argument("--indexes", default=",".join(INDEX_NAMES))
    ana.add_argument("--var-fraction", type=float, default=0.95)
    ana.add_argument("--lambda", dest="penalty_lambda", type=float, default=0.0)
    ana.add_argument("--ridge", type=float, default=0.0)
    ana.add_argument("--flip", action="store_true")
    ana.add_argument("--export-roc", default=None,
                     help="write per-index ROC samples to this CSV")
    ana.add_argument("--out", default=None)

    roc = sub.add_parser("roc", help="write one index's sampled ROC curve")
    roc.add_argument("--input", required=True)
    roc.add_argument("--index", required=True, choices=INDEX_NAMES)
    roc.add_argument("--out", required=True)
    roc.add_argument("--var-fraction", type=float, default=0.95)
    roc.add_argument("--ridge", type=float, default=0.0)
    roc.add_argument("--p-grid-size", type=int, default=101)
    return parser


def _cmd_simulate(args) -> int:
    spec = ScenarioSpec(
        name=args.scenario,
        n_d=args.nd,
        n_h=args.nh,
        seed=args.seed,
        rho=args.rho,
        process=args.process,
        grid_size=args.grid_size,
    )
    config = RunConfig(
        scenario=spec,
        indexes=_parse_indexes(args.indexes),
        reps=args.reps,
        var_fraction=args.var_fraction,
        penalty_lambda=args.penalty_lambda,
        ridge=args.ridge,
        flip_orientation=args.flip,
    )
    report = run_study(config)
    sys.stdout.write(emit_report(report, "table-text").decode("utf-8"))
    if args.out:
        write_report(report, args.out)
    return 0


def _cmd_analyze(args) -> int:
    config = RunConfig(
        scenario=args.input,
        indexes=_parse_indexes(args.indexes),
        reps=1,
        var_fraction=args.var_fraction,
        penalty_lambda=args.penalty_lambda,
        ridge=args.ridge,
        flip_orientation=args.flip,
        keep_roc=args.export_roc is not None,
    )
    report = run_study(config)
    sys.stdout.write(emit_report(report, "table-text").decode("utf-8"))
    if args.export_roc:
        with open(args.export_roc, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "p", "roc"])
            writer.writerows(roc_export_rows(report))
    if args.out:
        write_report(report, args.out)
    return 0


def _cmd_roc(args) -> int:
    d, h = ingest_curves(args.input)
    config = RunConfig(
        scenario=args.input,
        var_fraction=args.var_fraction,
        ridge=args.ridge,
        p_grid_size=args.p_grid_size,
    )
    index = FITTERS[args.index](FitContext(d, h), config)
    summary = roc_curve(score_sample(index, d, h), default_p_grid(config.p_grid_size))
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p", "roc"])
        for p, value in zip(summary.p_grid, summary.roc_values):
            writer.writerow([f"{p:.6f}", f"{value:.6f}"])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our config code
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_roc(args)
    except NumericalDegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CurveParseError, FuncrocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
