"""Monte Carlo study driver, curve-file ingestion and report emission.

A study runs independent replications of one scenario: each replication
draws a fresh sample pair from its own random substream, fits the
requested discriminant indexes on that draw, scores the same draw, and
records AUC and Youden summaries.  Index failures inside a replication are
isolated so one singular fit cannot poison the study.  Aggregation order
is fixed by replication id, so results do not depend on scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CurveParseError, FuncrocError
from .grids import FunctionalSample, Grid, Group
from .indexes import (
    DiscriminantIndex,
    FitContext,
    IntegralIndex,
    MaxIndex,
    MinIndex,
    PenaltySpec,
    fit_mean_difference,
    fit_optimal_linear,
    fit_quadratic,
)
from .rocmetrics import default_p_grid, roc_curve, score_sample
from .simulation import ScenarioSpec, generate_scenario

__all__ = [
    "FITTERS",
    "INDEX_NAMES",
    "RunConfig",
    "ReplicationResult",
    "StudyReport",
    "run_replication",
    "run_study",
    "ingest_curves",
    "analyze",
    "emit_report",
]

# Each index name maps to the rule that builds it from one draw's context.
# A zero penalty weight fits the unpenalized linear rule.
FITTERS: dict[str, Callable[[FitContext, RunConfig], DiscriminantIndex]] = {
    "max": lambda ctx, config: MaxIndex(),
    "min": lambda ctx, config: MinIndex(),
    "integral": lambda ctx, config: IntegralIndex(),
    "meandiff": lambda ctx, config: fit_mean_difference(ctx),
    "linear": lambda ctx, config: fit_optimal_linear(
        ctx, var_fraction=config.var_fraction, penalty=PenaltySpec(lam=config.penalty_lambda)
    ),
    "quad": lambda ctx, config: fit_quadratic(
        ctx, var_fraction=config.var_fraction, ridge=config.ridge
    ),
}
INDEX_NAMES = tuple(FITTERS)


@dataclass(frozen=True)
class RunConfig:
    """Everything one study run depends on.

    ``scenario`` is either a simulation ScenarioSpec or the path of a curve
    file; file-backed configs run a single analysis pass instead of a
    replication loop.
    """

    scenario: ScenarioSpec | str | Path
    indexes: tuple[str, ...] = INDEX_NAMES
    reps: int = 200
    var_fraction: float = 0.95
    penalty_lambda: float = 0.0
    ridge: float = 0.0
    flip_orientation: bool = False
    p_grid_size: int = 101
    keep_roc: bool = False

    def __post_init__(self):
        indexes = tuple(self.indexes)
        unknown = [name for name in indexes if name not in INDEX_NAMES]
        if unknown:
            raise ValueError(f"unknown index names: {', '.join(unknown)}")
        if not indexes:
            raise ValueError("at least one index is required")
        object.__setattr__(self, "indexes", indexes)
        for name in ("reps", "p_grid_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.var_fraction <= 1.0:
            raise ValueError("var_fraction must lie in (0, 1]")
        # NaN fails too
        if not (0.0 <= self.penalty_lambda < np.inf and 0.0 <= self.ridge < np.inf):
            raise ValueError("penalty_lambda and ridge must be finite and nonnegative")
        if self.p_grid_size < 2:
            raise ValueError("p_grid_size must be at least 2")

    @property
    def seed(self) -> int | None:
        return self.scenario.seed if isinstance(self.scenario, ScenarioSpec) else None


@dataclass
class ReplicationResult:
    """Per-index summaries of a single replication."""

    replication_id: int
    auc: dict[str, float] = field(default_factory=dict)
    youden: dict[str, float] = field(default_factory=dict)
    roc_values: dict[str, np.ndarray] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


@dataclass
class StudyReport:
    """Aggregated study output.

    ``per_index`` maps each requested index name to mean/SD of the AUC, the
    mean Youden index and the number of successful replications; an index
    whose every replication failed carries an ``error`` entry instead of
    numbers.
    """

    config: dict
    per_index: dict[str, dict]
    seed: int | None
    elapsed_seconds: float
    replications: int
    roc_samples: dict[str, list] = field(default_factory=dict)


def _evaluate_indexes(
    result: ReplicationResult,
    d: FunctionalSample,
    h: FunctionalSample,
    config: RunConfig,
) -> None:
    p_grid = default_p_grid(config.p_grid_size)
    ctx = FitContext(d, h)
    for name in config.indexes:
        try:
            index = FITTERS[name](ctx, config)
            scores = score_sample(index, d, h)
            summary = roc_curve(scores, p_grid)
            if config.flip_orientation and summary.auc < 0.5:
                summary = roc_curve(scores.swapped(), p_grid)
            result.auc[name] = summary.auc
            result.youden[name] = summary.youden
            if config.keep_roc:
                result.roc_values[name] = summary.roc_values
        except FuncrocError as exc:
            result.errors[name] = f"{type(exc).__name__}: {exc}"


def run_replication(config: RunConfig, replication_id: int) -> ReplicationResult:
    """One scenario draw with all requested indexes fitted and scored.

    Deterministic given (config, replication_id); the draw uses the
    substream keyed by seed XOR replication_id.
    """
    if not isinstance(config.scenario, ScenarioSpec):
        raise ValueError("run_replication needs a simulation scenario")
    result = ReplicationResult(replication_id=replication_id)
    d, h = generate_scenario(config.scenario.substream(replication_id))
    _evaluate_indexes(result, d, h, config)
    return result


def _config_echo(config: RunConfig) -> dict:
    scenario = config.scenario
    if isinstance(scenario, ScenarioSpec):
        scenario_echo = asdict(scenario)
    else:
        scenario_echo = {"input": str(scenario)}
    return {
        "scenario": scenario_echo,
        "indexes": list(config.indexes),
        "reps": config.reps,
        "var_fraction": config.var_fraction,
        "penalty_lambda": config.penalty_lambda,
        "ridge": config.ridge,
        "flip_orientation": config.flip_orientation,
        "p_grid_size": config.p_grid_size,
    }


def _aggregate(
    config: RunConfig,
    results: list[ReplicationResult],
    elapsed: float,
) -> StudyReport:
    per_index: dict[str, dict] = {}
    roc_samples: dict[str, list] = {}
    for name in config.indexes:
        aucs = [r.auc[name] for r in results if name in r.auc]
        youdens = [r.youden[name] for r in results if name in r.youden]
        failures = [r.errors[name] for r in results if name in r.errors]
        if not aucs:
            per_index[name] = {
                "mean_auc": None,
                "sd_auc": None,
                "mean_youden": None,
                "n_ok": 0,
                "error": failures[0] if failures else "no replications",
            }
            continue
        aucs = np.asarray(aucs)
        entry = {
            "mean_auc": float(aucs.mean()),
            "sd_auc": float(aucs.std(ddof=1)) if aucs.size > 1 else 0.0,
            "mean_youden": float(np.mean(youdens)),
            "n_ok": int(aucs.size),
        }
        if failures:
            entry["n_failed"] = len(failures)
        per_index[name] = entry
        if config.keep_roc:
            roc_samples[name] = [r.roc_values[name].tolist() for r in results
                                 if name in r.roc_values]
    return StudyReport(
        config=_config_echo(config),
        per_index=per_index,
        seed=config.seed,
        elapsed_seconds=elapsed,
        replications=len(results),
        roc_samples=roc_samples,
    )


def run_study(config: RunConfig) -> StudyReport:
    """Run all replications of a config and aggregate their summaries.

    File-backed configs delegate to a single ``analyze`` pass.
    """
    if not isinstance(config.scenario, ScenarioSpec):
        d, h = ingest_curves(config.scenario)
        return analyze(d, h, config)
    start = time.perf_counter()
    results = [run_replication(config, rep) for rep in range(config.reps)]
    return _aggregate(config, results, time.perf_counter() - start)


def analyze(d: FunctionalSample, h: FunctionalSample, config: RunConfig) -> StudyReport:
    """Single-pass analysis of one dataset: fit, score and summarize."""
    start = time.perf_counter()
    result = ReplicationResult(replication_id=0)
    _evaluate_indexes(result, d, h, config)
    return _aggregate(config, [result], time.perf_counter() - start)


def _parse_float(cell: str, line: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise CurveParseError(
            f"column {column}: not a number: {cell!r}", line=line
        ) from exc
    if not np.isfinite(value):
        raise CurveParseError(f"column {column}: non-finite value {cell!r}", line=line)
    return value


def ingest_curves(path) -> tuple[FunctionalSample, FunctionalSample]:
    """Read a labeled curve file into (diseased, healthy) samples.

    Format: a header ``label,t1,...,tm`` giving the grid abscissae, then one
    row per subject holding a group label (``D`` or ``H``) followed by m
    values.  Both groups must be present; all rows share the header grid.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CurveParseError(f"cannot read {path}: {exc}") from exc
    # pair each row with its line number before blank rows are dropped
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise CurveParseError("file is empty", line=1)

    header_line, header = rows[0]
    if len(header) < 3 or header[0].strip().lower() != "label":
        raise CurveParseError(
            "header must be 'label,t1,...,tm' with at least two grid points", line=header_line
        )
    points = [
        _parse_float(cell.strip(), line=header_line, column=j + 2)
        for j, cell in enumerate(header[1:])
    ]
    try:
        grid = Grid.from_points(np.asarray(points))
    except ValueError as exc:
        raise CurveParseError(f"bad grid in header: {exc}", line=header_line) from exc

    m = len(grid)
    groups: dict[Group, list[list[float]]] = {Group.DISEASED: [], Group.HEALTHY: []}
    for line, row in rows[1:]:
        if len(row) != m + 1:
            raise CurveParseError(
                f"expected {m + 1} cells, found {len(row)}", line=line
            )
        label = row[0].strip().upper()
        if label not in ("D", "H"):
            raise CurveParseError(f"unknown group label {row[0]!r}", line=line)
        values = [
            _parse_float(cell.strip(), line=line, column=j + 2)
            for j, cell in enumerate(row[1:])
        ]
        groups[Group.DISEASED if label == "D" else Group.HEALTHY].append(values)

    for group, label in ((Group.DISEASED, "D"), (Group.HEALTHY, "H")):
        if not groups[group]:
            raise CurveParseError(f"no rows labeled {label!r} found")
    diseased = FunctionalSample(grid, np.asarray(groups[Group.DISEASED]), Group.DISEASED)
    healthy = FunctionalSample(grid, np.asarray(groups[Group.HEALTHY]), Group.HEALTHY)
    return diseased, healthy


def _format_cell(value) -> str:
    return "--" if value is None else f"{value:.4f}"


def emit_report(report: StudyReport, format: str = "table-text") -> bytes:
    """Serialize a study report.

    ``"table-text"`` renders a fixed-order ASCII table; ``"machine-readable"``
    renders JSON that parses back to the same values.
    """
    if format == "machine-readable":
        payload = {
            "config": report.config,
            "per_index": report.per_index,
            "seed": report.seed,
            "elapsed_seconds": report.elapsed_seconds,
            "replications": report.replications,
        }
        if report.roc_samples:
            payload["roc_samples"] = report.roc_samples
        return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    if format != "table-text":
        raise ValueError(f"unknown report format: {format!r}")

    lines = ["study report"]
    scenario = report.config.get("scenario", {})
    scenario_text = ", ".join(f"{key}={value}" for key, value in scenario.items()
                              if value is not None)
    lines.append(f"scenario: {scenario_text}")
    lines.append(f"replications: {report.replications}")
    lines.append(f"seed: {report.seed if report.seed is not None else '--'}")
    lines.append("")
    lines.append(f"{'index':<10}{'mean_auc':>10}{'sd_auc':>10}{'mean_youden':>13}{'ok':>6}")
    for name in INDEX_NAMES:
        if name not in report.per_index:
            continue
        entry = report.per_index[name]
        if entry.get("mean_auc") is None:
            lines.append(f"{name:<10}unavailable ({entry.get('error', 'failed')})")
            continue
        lines.append(
            f"{name:<10}"
            f"{_format_cell(entry['mean_auc']):>10}"
            f"{_format_cell(entry['sd_auc']):>10}"
            f"{_format_cell(entry['mean_youden']):>13}"
            f"{entry['n_ok']:>6}"
        )
    lines.append("")
    lines.append(f"elapsed_seconds: {report.elapsed_seconds:.3f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_report(report: StudyReport, path, format: str | None = None) -> None:
    """Write a report to disk, inferring JSON from a .json suffix."""
    path = Path(path)
    if format is None:
        format = "machine-readable" if path.suffix == ".json" else "table-text"
    try:
        path.write_bytes(emit_report(report, format))
    except OSError as exc:
        raise FuncrocError(f"cannot write report to {path}: {exc}") from exc


def roc_export_rows(report: StudyReport) -> list[tuple]:
    """Flatten retained ROC samples into (index, p, value) rows.

    The p values are those of the probability grid the report was made on.
    """
    grid = default_p_grid(report.config["p_grid_size"])
    rows = []
    for name in INDEX_NAMES:
        for sample in report.roc_samples.get(name, []):
            rows.extend((name, float(p), float(v)) for p, v in zip(grid, sample))
    return rows
