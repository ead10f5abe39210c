"""The benchmark workloads: inputs made from the seed, one timed pass, checks.

Each workload is a closed loop with one caller: a pass is started only after
the previous one returned.  A timed pass is short (a tenth of a second to
half a second), so that a run holds scores to hundreds of them.  Every timed
pass runs the same inputs, so each pass's outputs must equal the first
pass's (the bit-reproducibility contract).  A check pass, run once before
the timed passes, is checked against pinned expectations.

Each workload also has a reference computation: its main kind of work done
with plain numpy and Python, on fixed inputs, with no funcroc code.  The
host's speed drifts by up to a half within minutes, and code with a
different working set drifts differently, so a timed pass is measured in
units of its own workload's reference run next to it.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from funcroc import cli, harness
from funcroc.simulation import ScenarioSpec, generate_scenario


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent 62-bit scenario seeds drawn from the benchmark seed.

    Substreams are keyed by seed XOR replication id, so random 62-bit base
    seeds keep the studies' substream sets apart.
    """
    states = np.random.SeedSequence(seed).generate_state(count, np.uint64)
    return [int(state) >> 2 for state in states]


def _near(center: float, tolerance: float) -> tuple[float, float]:
    return (center - tolerance, center + tolerance)


@dataclass(frozen=True)
class Study:
    """One run_study call; ``targets`` maps each index to its accepted mean-AUC range."""

    name: str
    n_d: int
    n_h: int
    reps: int
    targets: dict
    rho: float | None = None
    process: str | None = None
    grid_size: int = 100


# The five Monte Carlo criteria (01-05) of tests/test_acceptance.py, with
# their replication counts, index sets, targets and tolerances.
ACCEPTANCE_STUDIES = (
    Study("P1", 300, 300, 200, rho=1.0, process="brownian", targets={
        "integral": _near(0.9389, 0.02), "meandiff": _near(0.9653, 0.015),
        "linear": _near(0.9892, 0.01), "quad": _near(0.9987, 0.005)}),
    Study("P0", 300, 300, 200, rho=2.0, process="brownian", targets={
        "integral": (0.47, 0.58), "meandiff": (0.47, 0.58),
        "linear": (0.47, 0.58), "quad": _near(0.7648, 0.02)}),
    Study("C20", 300, 300, 200, targets={
        "max": _near(0.7340, 0.02), "min": _near(0.2647, 0.02), "quad": _near(0.9090, 0.02)}),
    Study("D20", 300, 300, 100, targets={
        "max": _near(0.1486, 0.02), "quad": (0.999, 1.0)}),
    Study("P0", 30, 250, 200, rho=2.0, process="expvar", targets={
        "linear": _near(0.7670, 0.03), "quad": _near(0.9943, 0.01)}),
)

# D20 with n < m.  Centers come from a 2000-replication study (seed
# 987654321) of the unchanged library; each tolerance is five Monte Carlo
# standard errors of a 25-replication mean (5 sd / sqrt(25), sd from that
# study).  ``quad`` is near 1 with a skewed spread, so it gets a floor, as
# the acceptance suite's D20 criterion does.
WIDEGRID_STUDY = Study("D20", 40, 40, 25, grid_size=400, targets={
    "max": _near(0.1356, 0.043), "min": _near(0.8654, 0.043),
    "integral": _near(0.4998, 0.068), "meandiff": _near(0.6324, 0.040),
    "linear": _near(0.6984, 0.051), "quad": (0.999, 1.0)})


def _fit_counts(per_index: dict, reps: int) -> tuple[int, int]:
    """(attempted, failed) (replication, index) fits of one report."""
    attempted = reps * len(per_index)
    return attempted, attempted - sum(entry["n_ok"] for entry in per_index.values())


def _study_fit_counts(outputs, configs) -> tuple[int, int]:
    """(attempted, failed) fits of the reports of several studies."""
    counts = [_fit_counts(per_index, config.reps) for per_index, config in zip(outputs, configs)]
    return sum(a for a, _ in counts), sum(f for _, f in counts)


def _target_failures(label: str, per_index: dict, targets: dict) -> list[str]:
    failures = []
    for name, (low, high) in targets.items():
        value = per_index[name]["mean_auc"]
        if value is None or not low <= value <= high:
            failures.append(f"{label} {name}: mean AUC {value} outside [{low:.4f}, {high:.4f}]")
    return failures


class SampleEigenReference:
    """Draw n Gaussian curves on m points, form their covariance, ``eigh`` it.

    The draw, covariance and eigendecomposition steps of a replication, in
    plain numpy; ``repeats`` of them in one run.
    """

    def __init__(self, m: int, n: int, repeats: int):
        rng = np.random.default_rng(0)
        factor = rng.standard_normal((m, m)) / np.sqrt(m)
        self.factor = np.tril(factor @ factor.T + np.eye(m))
        self.rng = rng
        self.n, self.repeats = n, repeats

    def __call__(self) -> float:
        """Run once; returns the seconds taken."""
        began = time.perf_counter()
        for _ in range(self.repeats):
            curves = self.rng.standard_normal((self.n, self.factor.shape[0])) @ self.factor
            centered = curves - curves.mean(axis=0)
            np.linalg.eigh(centered.T @ centered / (self.n - 1))
        return time.perf_counter() - began


class ParseReference:
    """Parse a CSV text of ``lines`` rows of 50 ``repr`` floats and sort them."""

    def __init__(self, lines: int):
        rows = np.random.default_rng(0).standard_normal((lines, 50)).tolist()
        self.text = "".join(",".join(map(repr, row)) + "\n" for row in rows)

    def __call__(self) -> float:
        """Run once; returns the seconds taken."""
        began = time.perf_counter()
        rows = list(csv.reader(io.StringIO(self.text)))
        values = np.asarray([[float(cell.strip()) for cell in row] for row in rows])
        np.argsort(values.ravel())
        return time.perf_counter() - began


class MonteCarlo:
    """Studies through harness.run_study.

    The check pass runs every study with all its replications.  A timed pass
    runs every study with its first ``timed_reps`` replications only.
    """

    def __init__(self, studies, seed: int, timed_reps: int, reference):
        self.studies = studies
        self.reference = reference
        self.configs = [
            harness.RunConfig(
                scenario=ScenarioSpec(
                    name=study.name, n_d=study.n_d, n_h=study.n_h, seed=study_seed,
                    rho=study.rho, process=study.process, grid_size=study.grid_size,
                ),
                indexes=tuple(study.targets),
                reps=study.reps,
            )
            for study, study_seed in zip(studies, derived_seeds(seed, len(studies)))
        ]
        self.timed_configs = [replace(config, reps=min(timed_reps, config.reps))
                              for config in self.configs]
        self.reps_per_pass = sum(config.reps for config in self.timed_configs)
        self.curves_per_pass = sum(config.reps * (study.n_d + study.n_h)
                                   for config, study in zip(self.timed_configs, studies))

    def warm_up(self) -> None:
        for config in self.configs:
            harness.run_replication(config, 0)

    def prepare(self, workdir: Path) -> None:
        pass

    def check_pass(self) -> tuple[list[str], int, int]:
        """Run the full studies; (failed checks, attempted fits, failed fits)."""
        outputs = [harness.run_study(config).per_index for config in self.configs]
        failures = []
        for number, (per_index, study) in enumerate(zip(outputs, self.studies), start=1):
            failures += _target_failures(f"study {number} ({study.name})", per_index,
                                         study.targets)
        return (failures, *_study_fit_counts(outputs, self.configs))

    def run_pass(self):
        return [harness.run_study(config) for config in self.timed_configs]

    def outputs(self, reports) -> list[dict]:
        return [report.per_index for report in reports]

    def fit_counts(self, outputs) -> tuple[int, int]:
        return _study_fit_counts(outputs, self.timed_configs)


class AnalyzeFile:
    """A pass runs ``funcroc analyze`` in-process on a 2,000+2,000-curve C21 file.

    The check pass is one such pass, checked against an in-memory analysis.
    """

    N_PER_GROUP = 2_000
    GRID_SIZE = 50
    P_GRID_SIZE = 101

    def __init__(self, seed: int):
        file_seed, order_seed, warm_seed = derived_seeds(seed, 3)
        self.spec = ScenarioSpec(name="C21", n_d=self.N_PER_GROUP, n_h=self.N_PER_GROUP,
                                 seed=file_seed, grid_size=self.GRID_SIZE)
        self.order_seed = order_seed
        self.warm_spec = ScenarioSpec(name="C21", n_d=50, n_h=50, seed=warm_seed,
                                      grid_size=self.GRID_SIZE)
        self.reps_per_pass = 1
        self.curves_per_pass = 2 * self.N_PER_GROUP
        self.reference = ParseReference(500)

    def warm_up(self) -> None:
        d, h = generate_scenario(self.warm_spec)
        harness.analyze(d, h, harness.RunConfig(scenario="warm-up", keep_roc=True))

    def prepare(self, workdir: Path) -> None:
        """Write the curve file, rows in seeded random order, floats as repr."""
        self.samples = generate_scenario(self.spec)
        d, h = self.samples
        rows = [("D", row) for row in d.values.tolist()] + [("H", row) for row in h.values.tolist()]
        order = np.random.default_rng(self.order_seed).permutation(len(rows))
        self.input = workdir / "curves.csv"
        self.report = workdir / "report.json"
        self.roc = workdir / "roc.csv"
        with open(self.input, "w", encoding="utf-8") as handle:
            handle.write("label," + ",".join(map(repr, d.grid.points.tolist())) + "\n")
            for i in order:
                label, values = rows[i]
                handle.write(label + "," + ",".join(map(repr, values)) + "\n")

    def run_pass(self) -> int:
        return cli.main(["analyze", "--input", str(self.input), "--export-roc", str(self.roc),
                         "--out", str(self.report)])

    def outputs(self, exit_code: int) -> dict:
        per_index = json.loads(self.report.read_text(encoding="utf-8"))["per_index"]
        with open(self.roc, encoding="utf-8") as handle:
            roc_rows = sum(1 for _ in handle) - 1
        return {"exit_code": exit_code, "per_index": per_index, "roc_rows": roc_rows}

    def fit_counts(self, outputs) -> tuple[int, int]:
        return _fit_counts(outputs["per_index"], 1)

    def check_pass(self) -> tuple[list[str], int, int]:
        """One pass; (failed checks, attempted fits, failed fits)."""
        outputs = self.outputs(self.run_pass())
        return (self.check(outputs), *self.fit_counts(outputs))

    def check(self, outputs) -> list[str]:
        failures = []
        if outputs["exit_code"] != 0:
            failures.append(f"analyze exited with code {outputs['exit_code']}")
        expected_rows = len(harness.INDEX_NAMES) * self.P_GRID_SIZE
        if outputs["roc_rows"] != expected_rows:
            failures.append(f"ROC export has {outputs['roc_rows']} rows, expected {expected_rows}")
        config = harness.RunConfig(scenario=str(self.input), keep_roc=True)
        reference = harness.analyze(*self.samples, config).per_index
        for name in harness.INDEX_NAMES:
            for key in ("mean_auc", "mean_youden"):
                got = outputs["per_index"][name].get(key)
                if got != reference[name].get(key):
                    failures.append(f"{name} {key}: file analysis {got!r}, "
                                    f"in-memory analysis {reference[name].get(key)!r}")
        return failures


def make(name: str, seed: int):
    if name == "mc-acceptance":
        return MonteCarlo(ACCEPTANCE_STUDIES, seed, timed_reps=2,
                          reference=SampleEigenReference(m=100, n=300, repeats=4))
    if name == "mc-widegrid":
        return MonteCarlo((WIDEGRID_STUDY,), seed, timed_reps=2,
                          reference=SampleEigenReference(m=400, n=40, repeats=1))
    if name == "analyze-file":
        return AnalyzeFile(seed)
    raise ValueError(f"unknown workload: {name!r}")
