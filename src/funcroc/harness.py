"""Monte Carlo study driver, curve-file ingestion and report emission.

A study runs independent replications of one scenario: each replication
draws a fresh sample pair from its own random substream and hands it to
``evaluate``: ``fit_indexes`` fits the requested discriminant indexes on that
pair, and ``summarize_pair``, which scores any pair, records its AUC and
Youden summaries.  ``analyze`` and the ``roc`` command evaluate a curve
file's pair the same way.  Index failures are isolated so one singular fit
cannot poison the study.  ``run_study`` hands a study's replications to
``_helper.run_replications``, which alone decides whether they run serially:
on a POSIX system with BLAS on one thread and two usable CPUs, one helper
process, started at the first such study and kept for the life of the
process, runs the upper half of the replication ids that remain once it has
booted; a process, unlike a thread, does not share the caller's GIL.
Aggregation order is fixed by replication id, so results do not depend on
scheduling or on the helper.  From a process's second large curve file on,
``ingest_curves`` hands the data lines to ``_helper.read_body``: a booted
helper parses the upper half under the same rule, and the arrays and errors
are those of the caller reading alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
import time
from array import array
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CurveParseError, FuncrocError, GridMismatchError
from .grids import FunctionalSample, Grid, check_finite, store_plain
from .indexes import (
    DiscriminantIndex,
    FitContext,
    MaxIndex,
    MinIndex,
    fit_mean_difference,
    fit_optimal_linear,
    fit_quadratic,
    index_scores,
    integral_index,
)
from .rocmetrics import default_p_grid, summarize_sorted
from .simulation import ScenarioSpec, generate_scenario

__all__ = [
    "FITTERS",
    "INDEX_NAMES",
    "RunConfig",
    "ReplicationResult",
    "StudyReport",
    "evaluate",
    "fit_indexes",
    "summarize_pair",
    "run_replication",
    "run_study",
    "ingest_curves",
    "analyze",
    "emit_report",
]

# Each index name maps to the rule that builds it from one draw's context.
FITTERS: dict[str, Callable[[FitContext, RunConfig], DiscriminantIndex]] = {
    "max": lambda ctx, config: MaxIndex(),
    "min": lambda ctx, config: MinIndex(),
    "integral": lambda ctx, config: integral_index(ctx.grid),
    "meandiff": lambda ctx, config: fit_mean_difference(ctx),
    "linear": lambda ctx, config: fit_optimal_linear(
        ctx, var_fraction=config.var_fraction, penalty_lambda=config.penalty_lambda
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
        if not isinstance(self.scenario, (ScenarioSpec, str, os.PathLike)):
            raise ValueError("scenario must be a ScenarioSpec or the path of a curve file")
        if isinstance(self.indexes, str):
            raise ValueError("indexes must be a sequence of index names, not one string")
        indexes = tuple(self.indexes)
        unknown = [str(name) for name in indexes if name not in INDEX_NAMES]
        if unknown:
            raise ValueError(f"unknown index names: {', '.join(unknown)}")
        if not indexes:
            raise ValueError("at least one index is required")
        repeated = dict.fromkeys(name for name in indexes if indexes.count(name) > 1)
        if repeated:
            raise ValueError(f"duplicate index names: {', '.join(repeated)}")
        object.__setattr__(self, "indexes", indexes)
        store_plain(self, ("reps", "p_grid_size"), int)
        store_plain(self, ("var_fraction", "penalty_lambda", "ridge"), float)
        if not isinstance(self.flip_orientation, (bool, np.bool_)):
            raise ValueError("flip_orientation must be a bool")
        object.__setattr__(self, "flip_orientation", bool(self.flip_orientation))
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
    """Per-index summaries of a single replication; ``errors`` holds each failed
    index's ``FuncrocError``."""

    auc: dict[str, float] = field(default_factory=dict)
    youden: dict[str, float] = field(default_factory=dict)
    roc_values: dict[str, np.ndarray] = field(default_factory=dict)
    errors: dict[str, FuncrocError] = field(default_factory=dict)


@dataclass
class StudyReport:
    """Aggregated study output.

    ``per_index`` maps each requested index name to mean/SD of the AUC, the
    mean Youden index, the number of successful replications (``n_ok``) and,
    when some but not all failed, the number of failed ones (``n_failed``);
    an index whose every replication failed carries an ``error`` entry
    instead of numbers.  ``config`` echoes every ``RunConfig`` field but
    ``keep_roc``.
    """

    config: dict
    per_index: dict[str, dict]
    seed: int | None
    elapsed_seconds: float
    replications: int
    roc_samples: dict[str, list] = field(default_factory=dict)


def _detached(error: FuncrocError) -> FuncrocError:
    """``error`` with no traceback on it or anywhere in its ``__cause__``/``__context__``
    chain, so a stored error does not keep the failing call's frames, and with them
    the draw's curves and ``FitContext``, alive."""
    seen, chain = set(), [error]
    while chain:
        link = chain.pop()
        if link is not None and id(link) not in seen:
            seen.add(id(link))
            link.__traceback__ = None
            chain += (link.__cause__, link.__context__)
    return error


def fit_indexes(ctx: FitContext, config: RunConfig) -> dict[str, DiscriminantIndex | FuncrocError]:
    """Each index of ``config`` fitted on the context's pair, or the ``FuncrocError``
    its fit raised (see ``_detached``), by name in ``config.indexes`` order."""
    fitted = {}
    for name in config.indexes:
        try:
            fitted[name] = FITTERS[name](ctx, config)
        except FuncrocError as exc:
            fitted[name] = _detached(exc)
    return fitted


def summarize_pair(fitted: dict, d: FunctionalSample, h: FunctionalSample,
                   config: RunConfig) -> ReplicationResult:
    """Score any pair with ``fit_indexes``'s indexes into one matrix per group, a row per
    index, and summarize the rows in one batch; each failed fit's error goes to ``errors``.
    A pair on two grids, whatever was fitted, or off a ``LinearIndex``'s or ``QuadraticIndex``'s
    grid raises ``GridMismatchError``, and a non-finite score ``check_finite``'s ``ValueError``,
    worded as ``ScoreSample``'s.  Each row equals ``roc_curve`` of its ``score_sample`` bit for
    bit; ROC values are computed only if ``keep_roc``."""
    if not d.grid.compatible_with(h.grid):
        raise GridMismatchError("samples live on different grids")
    result = ReplicationResult(errors={name: index for name, index in fitted.items()
                                       if isinstance(index, FuncrocError)})
    names = [name for name in fitted if name not in result.errors]
    if not names:
        return result
    diseased, healthy = np.empty((len(names), d.n)), np.empty((len(names), h.n))
    for row, name in enumerate(names):
        diseased[row], healthy[row] = index_scores(fitted[name], d), index_scores(fitted[name], h)
    for group, scores in (("diseased", diseased), ("healthy", healthy)):
        check_finite(scores, f"{group} scores")
        scores.sort(axis=1)
    p_grid = default_p_grid(config.p_grid_size) if config.keep_roc else np.empty(0)
    rows = summarize_sorted(diseased, healthy, p_grid)
    flip = rows.auc < 0.5
    if config.flip_orientation and flip.any():
        # the flipped rows' swapped groups are already sorted
        swapped = summarize_sorted(healthy[flip], diseased[flip], p_grid)
        rows.auc[flip], rows.youden[flip] = swapped.auc, swapped.youden
        rows.roc_values[flip] = swapped.roc_values
    result.auc.update(zip(names, rows.auc.tolist()))
    result.youden.update(zip(names, rows.youden.tolist()))
    if config.keep_roc:
        result.roc_values.update(zip(names, rows.roc_values))
    return result


def evaluate(d: FunctionalSample, h: FunctionalSample, config: RunConfig, *,
             _kept: dict | None = None) -> ReplicationResult:
    """``summarize_pair`` of one pair with ``fit_indexes`` on it; a pair on two grids raises
    ``GridMismatchError``.  Studies, ``analyze`` and the ``roc`` command evaluate here."""
    return summarize_pair(fit_indexes(FitContext(d, h, _kept=_kept), config), d, h, config)


# ``kept``: the buffers (see ``grids._buffer``) that the thread's last replication gave back
_thread = threading.local()


def run_replication(config: RunConfig, replication: int) -> ReplicationResult:
    """One scenario draw with all requested indexes fitted and scored.

    Deterministic given (config, replication); the draw uses the
    substream keyed by seed XOR replication.  It draws and centers in the
    buffers its thread kept (``grids._buffer``; no ``FITTERS`` entry may keep the
    samples) and gives them back only if it returns, so one run inside another,
    or after one that raised, gets new ones.
    """
    if not isinstance(config.scenario, ScenarioSpec):
        raise ValueError("run_replication needs a simulation scenario")
    kept = vars(_thread).pop("kept", {})
    d, h = generate_scenario(config.scenario.substream(replication), _kept=kept)
    result = evaluate(d, h, config, _kept=kept)
    _thread.kept = kept
    return result


def _config_echo(config: RunConfig) -> dict:
    """Every ``RunConfig`` field but ``keep_roc``, as JSON-ready values."""
    echo = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "keep_roc"}
    scenario = config.scenario  # its fields are plain values: no deep copy as in asdict
    echo["scenario"] = ({f.name: getattr(scenario, f.name) for f in fields(scenario)}
                        if isinstance(scenario, ScenarioSpec) else {"input": str(scenario)})
    echo["indexes"] = list(config.indexes)
    return echo


def _aggregate(
    config: RunConfig,
    results: list[ReplicationResult],
    elapsed: float,
) -> StudyReport:
    """The indexes that share a success count are summarized as the rows of one matrix;
    numpy reduces each contiguous row as it reduces that index's own vector.  This saves
    about 0.1 ms per study whatever its replication count, so it shows only in studies
    of few replications: about 4% of a 2-replication D20 study on a 400-point grid,
    under 0.15% of a 25- to 200-replication study."""
    per_index: dict[str, dict] = {}
    roc_samples: dict[str, list] = {}
    batches: dict[int, list] = {}  # success count -> (name, AUCs, Youden values) per index
    for name in config.indexes:
        aucs = [r.auc[name] for r in results if name in r.auc]
        failures = [r.errors[name] for r in results if name in r.errors]
        if not aucs:
            per_index[name] = {
                "mean_auc": None,
                "sd_auc": None,
                "mean_youden": None,
                "n_ok": 0,
                "error": f"{type(failures[0]).__name__}: {failures[0]}",
            }
            continue
        youdens = [r.youden[name] for r in results if name in r.youden]
        batches.setdefault(len(aucs), []).append((name, aucs, youdens))
        per_index[name] = {"n_ok": len(aucs), **({"n_failed": len(failures)} if failures else {})}
        if config.keep_roc:
            roc_samples[name] = [r.roc_values[name].tolist() for r in results
                                 if name in r.roc_values]
    for n_ok, batch in batches.items():
        names, aucs, youdens = zip(*batch)
        aucs = np.array(aucs)
        sds = aucs.std(axis=1, ddof=1) if n_ok > 1 else np.zeros(len(names))
        for name, mean, sd, youden in zip(names, aucs.mean(axis=1).tolist(), sds.tolist(),
                                          np.mean(youdens, axis=1).tolist()):
            per_index[name] = {"mean_auc": mean, "sd_auc": sd, "mean_youden": youden,
                               **per_index[name]}
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

    ``_helper.run_replications`` runs them, some on the helper process when its
    rule allows; the report is the same either way.  File-backed configs
    delegate to a single ``analyze`` pass.
    """
    if not isinstance(config.scenario, ScenarioSpec):
        d, h = ingest_curves(config.scenario)
        return analyze(d, h, config)
    from ._helper import run_replications  # loaded by the first study, not at import

    start = time.perf_counter()
    return _aggregate(config, run_replications(config), time.perf_counter() - start)


def analyze(d: FunctionalSample, h: FunctionalSample, config: RunConfig) -> StudyReport:
    """Single-pass analysis of one dataset: fit, score and summarize."""
    start = time.perf_counter()
    return _aggregate(config, [evaluate(d, h, config)], time.perf_counter() - start)


def _parse_float(cell: str, line: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise CurveParseError(
            f"column {column}: not a number: {cell!r}", line=line
        ) from exc
    if not math.isfinite(value):
        raise CurveParseError(f"column {column}: non-finite value {cell!r}", line=line)
    return value


def _parse_cells(cells: list[str], line: int) -> list[float]:
    """The values of one row's cells, which sit in columns 2, 3, ..."""
    return [_parse_float(cell.strip(), line, column) for column, cell in enumerate(cells, start=2)]


def _parse_header(header: list[str], line: int) -> Grid:
    if len(header) < 3 or header[0].strip().lower() != "label":
        raise CurveParseError(
            "header must be 'label,t1,...,tm' with at least two grid points", line=line
        )
    try:
        return Grid(_parse_cells(header[1:], line))
    except ValueError as exc:
        raise CurveParseError(f"bad grid in header: {exc}", line=line) from exc


def _parse_rows(reader, line: int, grid: Grid, groups: dict[str, array]) -> None:
    """Append each data row's values to its group's array, in file order.

    ``reader`` is a csv reader whose first line is line ``line + 1`` of the
    file.  Raises ``CurveParseError`` at the first bad row.
    """
    width = len(grid) + 1
    for row in reader:
        if not row:
            continue
        here = line + reader.line_num
        if len(row) != width:
            raise CurveParseError(f"expected {width} cells, found {len(row)}", line=here)
        values = groups.get(row[0].strip().upper())
        if values is None:
            raise CurveParseError(f"unknown group label {row[0]!r}", line=here)
        values.extend(_parse_cells(row[1:], here))


# Characters of lines per bulk chunk.  A chunk's lines, value texts and
# parsed values are held at once, so the chunk size bounds the extra memory;
# larger chunks parse no faster.
_BULK_CHUNK = 1 << 16


def _read_bulk(lines: list[str], m: int, groups: dict[str, array]) -> bool:
    """Append one chunk's values, parsed by ``np.loadtxt``, to ``groups``.

    Returns False, and leaves ``groups`` as they were, for any chunk the row
    parser could read otherwise: a quote (csv syntax), a line over csv's
    field size limit, a label other than ``D`` or ``H``, or values that are
    not one finite number per grid point on every nonblank line.
    ``loadtxt`` strips a cell of the whitespace ``str.strip`` strips and
    converts the ASCII rest with ``PyOS_string_to_double``, as ``float``
    does; what it refuses instead (underscores, non-ASCII digits) goes to
    the row parser, so every value kept is the row parser's to the bit.  A
    line holding an invalid byte, a lone surrogate, is always refused: as a
    label it is not ``D`` or ``H``, and ``loadtxt`` cannot parse it as a cell.
    """
    limit = csv.field_size_limit()
    diseased, rests = [], []
    for line in lines:
        if line in ("\n", "\r\n", "\r"):  # csv reads these as blank rows
            continue
        label, _, rest = line.partition(",")
        label = label.strip().upper()
        if '"' in line or len(line) > limit or label not in ("D", "H"):
            return False
        diseased.append(label == "D")
        rests.append(rest)
    if not rests:  # loadtxt warns on empty input
        return True
    try:
        values = np.loadtxt(rests, delimiter=",", comments=None, quotechar=None,
                            dtype=float, ndmin=2)
    except ValueError:
        return False
    if values.shape != (len(rests), m) or not np.isfinite(values).all():
        return False
    mask = np.array(diseased)
    groups["D"].frombytes(values[mask].tobytes())
    groups["H"].frombytes(values[~mask].tobytes())
    return True


def _checked(lines, path: Path, first: int):
    """Yield ``lines``, the first being line ``first`` of the file at ``path``.

    The file is decoded with ``surrogateescape``, so an invalid byte arrives
    as a lone surrogate, which strict UTF-8 cannot encode; the first line
    holding one raises ``CurveParseError``.  Only then are the file's bytes
    read again, to name the byte's offset from the file's first byte (a
    byte-order mark is three).
    """
    for line, text in enumerate(lines, start=first):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            try:
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CurveParseError(
                    f"invalid UTF-8 at byte offset {exc.start}", line=line
                ) from None
            raise CurveParseError(f"{path} changed while it was read", line=line) from None
        yield text


def _read_body(chunks, rest, path: Path, line: int, grid: Grid, groups: dict[str, array]):
    """Append the values of the data lines from line ``line + 1`` on to ``groups``: each
    chunk of ``chunks`` (lists of lines) in bulk, until one is refused, from whose first
    line the row parser reads to the end, that chunk and then the lines of ``rest``.
    Returns the number of lines read once ``chunks`` end, or None once the row parser ran."""
    for lines in chunks:
        if not _read_bulk(lines, len(grid), groups):
            reader = csv.reader(_checked(chain(lines, rest), path, line + 1))
            try:
                _parse_rows(reader, line, grid, groups)
            except csv.Error as exc:  # e.g. a field over csv's size limit
                raise CurveParseError(f"malformed CSV: {exc}",
                                      line=line + reader.line_num) from exc
            return None
        line += len(lines)
    return line


# Whether this process has ingested a file of more than one bulk chunk.  The helper
# lives as long as the process, so only a process that reads such files again repays
# its start; a race between two threads at most reads one more file serially.
_large_ingested = False


def ingest_curves(path) -> tuple[FunctionalSample, FunctionalSample]:
    """Read a labeled curve file into (diseased, healthy) samples.

    Format: a header ``label,t1,...,tm`` giving the grid abscissae, then one
    row per subject holding a group label (``D`` or ``H``) followed by m
    values.  Both groups must be present; all rows share the header grid.
    A leading UTF-8 byte-order mark is skipped.  The file is read once: a
    csv reader reads the header, and the rest comes in chunks whose values
    ``np.loadtxt`` parses in bulk.  From the first chunk the bulk pass
    cannot read exactly as the csv row parser would (quotes, malformed or
    unusual cells, invalid UTF-8), the row parser reads to the end of the
    file and raises the first error in file order as ``CurveParseError``.
    A process's second file of more than one bulk chunk, and every later
    one, goes to ``_helper.read_body``, where a booted helper process may
    parse the upper half: the arrays and errors stay those of reading alone.
    """
    global _large_ingested
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
            # read by readline, so that the handle can tell where the data lines start
            reader = csv.reader(_checked(iter(handle.readline, ""), path, 1))
            header = next((row for row in reader if row), None)
            if header is None:
                raise CurveParseError("file is empty", line=1)
            grid = _parse_header(header, reader.line_num)
            groups = {"D": array("d"), "H": array("d")}
            large, read_body = os.fstat(handle.fileno()).st_size > _BULK_CHUNK, _read_body
            if large and _large_ingested:
                from ._helper import read_body
            _large_ingested |= large
            read_body(iter(partial(handle.readlines, _BULK_CHUNK), []), handle, path,
                      reader.line_num, grid, groups)
    except OSError as exc:
        raise CurveParseError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise CurveParseError(f"malformed CSV: {exc}", line=reader.line_num) from exc

    for label in ("D", "H"):
        if not groups[label]:
            raise CurveParseError(f"no rows labeled {label!r} found")
    m = len(grid)
    diseased = FunctionalSample._adopt(grid, np.frombuffer(groups["D"]).reshape(-1, m))
    healthy = FunctionalSample._adopt(grid, np.frombuffer(groups["H"]).reshape(-1, m))
    return diseased, healthy


def _format_cell(value) -> str:
    return "--" if value is None else f"{value:.4f}"


def emit_report(report: StudyReport, format: str = "table-text") -> bytes:
    """Serialize a study report.

    ``"table-text"`` renders a fixed-order ASCII table; ``"machine-readable"``
    renders JSON that parses back to the same values.
    """
    if format == "machine-readable":
        payload = dict(vars(report))  # asdict would copy every ROC value
        if not report.roc_samples:
            del payload["roc_samples"]
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
    lines.append(
        f"{'index':<10}{'mean_auc':>10}{'sd_auc':>10}{'mean_youden':>13}{'ok':>6}{'failed':>8}"
    )
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
            f"{entry.get('n_failed', 0):>8}"
        )
    lines.append("")
    lines.append(f"elapsed_seconds: {report.elapsed_seconds:.3f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_report(report: StudyReport, path) -> None:
    """Write a report to disk: JSON for a .json suffix in any case, the text table otherwise."""
    path = Path(path)
    format = "machine-readable" if path.suffix.lower() == ".json" else "table-text"
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
