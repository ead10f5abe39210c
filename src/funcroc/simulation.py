"""Gaussian-process generators and the Monte Carlo scenario catalog.

Dense-kernel processes are sampled through a jittered Cholesky factor of
the discretized covariance; the finite-rank process is sampled directly
from its eigenfunction expansion.  Scenario generation is deterministic
given the full specification including the seed: a counter-based Philox
stream keyed by the seed drives all draws, and study drivers derive
per-replication substreams by XOR-ing the seed with the replication index
so replications are order independent.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import SimulationDegeneracyError
from .estimation import CovarianceKernel
from .grids import FunctionalSample, Grid, make_uniform_grid, store_plain

__all__ = [
    "ProcessSpec",
    "ScenarioSpec",
    "SCENARIO_NAMES",
    "kernel_matrix",
    "sample_gaussian",
    "generate_scenario",
    "sine_eigenfunction",
]

SCENARIO_NAMES = ("P0", "P1", "C10", "C11", "C20", "C21", "D10", "D11", "D20", "D21")
_PROP_NAMES = ("P0", "P1")
_KINDS = ("brownian", "exp_variogram", "ornstein_uhlenbeck", "finite_rank")

_SEED_MASK = (1 << 64) - 1
_FACTOR_CACHE_SIZE = 16
_factor_cache: dict[tuple, np.ndarray] = {}
_factor_lock = threading.Lock()


def sine_eigenfunction(ell: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal mode sqrt(2) sin((2 ell - 1) pi t / 2) on [0, 1]."""
    return np.sqrt(2.0) * np.sin((2 * ell - 1) * np.pi * t / 2.0)


@dataclass(frozen=True)
class ProcessSpec:
    """One Gaussian process: covariance family, mean and overall scale.

    ``kind`` is ``"brownian"``, ``"exp_variogram"`` or ``"ornstein_uhlenbeck"``
    (both need ``theta``), or ``"finite_rank"`` (needs ``lambdas``).
    ``mean_amplitude`` a gives the mean curve a*sin(pi t) (zero mean when
    a = 0).  ``scale`` multiplies the covariance kernel.
    """

    kind: str
    theta: float | None = None
    lambdas: tuple[float, ...] | None = None
    mean_amplitude: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown process kind: {self.kind!r}")
        if self.kind in ("exp_variogram", "ornstein_uhlenbeck"):
            if self.theta is None or not 0 < self.theta < math.inf:
                raise ValueError(f"{self.kind} requires theta > 0")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no theta parameter")
        if self.kind == "finite_rank":
            if self.lambdas is None or len(self.lambdas) == 0:
                raise ValueError("finite_rank requires component variances")
            if not all(0 < lam < math.inf for lam in self.lambdas):
                raise ValueError("component variances must be positive")
            object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        elif self.lambdas is not None:
            raise ValueError(f"{self.kind} takes no component variances")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive")
        if not math.isfinite(self.mean_amplitude):
            raise ValueError("mean amplitude must be finite")

    def mean_values(self, grid: Grid) -> np.ndarray:
        return self.mean_amplitude * np.sin(np.pi * grid.points)


def kernel_matrix(spec: ProcessSpec, grid: Grid) -> CovarianceKernel:
    """Pointwise evaluation of the process covariance kernel on a grid."""
    t = grid.points
    if spec.kind == "brownian":
        matrix = np.minimum.outer(t, t)
    elif spec.kind == "exp_variogram":
        matrix = np.exp(-np.abs(np.subtract.outer(t, t)) / spec.theta)
    elif spec.kind == "ornstein_uhlenbeck":
        # zero-start process: variance vanishes at the origin; no factor can overflow
        theta = spec.theta
        gap = np.abs(np.subtract.outer(t, t))
        earlier = np.minimum.outer(t, t)
        matrix = np.exp(-theta * gap) * -np.expm1(-2.0 * theta * earlier) / (2.0 * theta)
    else:
        matrix = np.zeros((t.size, t.size))
        for ell, lam in enumerate(spec.lambdas, start=1):
            mode = sine_eigenfunction(ell, t)
            matrix += lam * np.outer(mode, mode)
    return CovarianceKernel(grid, spec.scale * matrix)


def _jittered_cholesky(matrix: np.ndarray) -> np.ndarray:
    diag_mean = float(np.mean(np.diag(matrix)))
    for epsilon in (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8):
        try:
            return np.linalg.cholesky(matrix + epsilon * diag_mean * np.eye(matrix.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise SimulationDegeneracyError(
        "covariance matrix is not positive definite even after jitter"
    )


def _cholesky_factor(spec: ProcessSpec, grid: Grid) -> np.ndarray:
    """Read-only jittered Cholesky factor of a process kernel on a grid.

    Factors are cached by (spec, grid points), so study replications that
    redraw the same processes factor each kernel once.  The cache holds at
    most ``_FACTOR_CACHE_SIZE`` factors and drops the oldest first.  The
    lookup, the factorization and the eviction happen under one lock, so
    threads that miss on the same kernel at once factor it once.
    """
    key = (spec, grid.points.tobytes())
    with _factor_lock:
        factor = _factor_cache.get(key)
        if factor is None:
            factor = _jittered_cholesky(kernel_matrix(spec, grid).matrix)
            factor.setflags(write=False)
            if len(_factor_cache) >= _FACTOR_CACHE_SIZE:
                del _factor_cache[next(iter(_factor_cache))]
            _factor_cache[key] = factor
    return factor


def sample_gaussian(
    spec: ProcessSpec,
    grid: Grid,
    n: int,
    rng: np.random.Generator,
) -> FunctionalSample:
    """Draw n independent process paths on the grid.

    Dense kernels go through a lower Cholesky factor with escalating
    diagonal jitter, computed once per (spec, grid points) and then reused;
    the finite-rank process sums its eigenfunction expansion with
    independent normal coefficients of variance scale * lambda_l.
    """
    if n < 1:
        raise ValueError("n must be positive")
    mean = spec.mean_values(grid)
    if spec.kind == "finite_rank":
        modes = np.column_stack(
            [sine_eigenfunction(ell, grid.points) for ell in range(1, len(spec.lambdas) + 1)]
        )
        sd = np.sqrt(spec.scale * np.asarray(spec.lambdas))
        coefficients = rng.standard_normal((n, len(spec.lambdas))) * sd
        values = coefficients @ modes.T
    else:
        factor = _cholesky_factor(spec, grid)
        values = rng.standard_normal((n, len(grid))) @ factor.T
    values += mean
    return FunctionalSample(grid, values)


@dataclass(frozen=True)
class ScenarioSpec:
    """One catalog entry of the simulation study.

    ``rho`` (the diseased-to-healthy covariance ratio) and ``process``
    (``"brownian"`` or ``"expvar"``) apply to the proportional scenarios
    P0 and P1 only; the remaining scenarios fix their processes.
    """

    name: str
    n_d: int
    n_h: int
    seed: int
    rho: float | None = None
    process: str | None = None
    grid_size: int = 100

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario: {self.name!r}")
        store_plain(self, ("n_d", "n_h", "grid_size", "seed"), int)
        if self.rho is not None:
            store_plain(self, ("rho",), float)
        if self.n_d < 1 or self.n_h < 1:
            raise ValueError("sample sizes must be positive")
        if self.grid_size < 2:
            raise ValueError("grid size must be at least 2")
        if self.name in _PROP_NAMES:
            if self.rho is None or not 0 < self.rho < math.inf:
                raise ValueError(f"{self.name} requires rho > 0")
            if self.name == "P0" and self.rho == 1.0:
                raise ValueError(
                    "P0 with rho = 1 makes both populations identical; rejected"
                )
            process = "brownian" if self.process is None else self.process
            if process not in ("brownian", "expvar"):
                raise ValueError("process must be 'brownian' or 'expvar'")
            object.__setattr__(self, "process", process)
        else:
            if self.rho is not None:
                raise ValueError(f"{self.name} takes no rho parameter")
            if self.process is not None:
                raise ValueError(f"{self.name} fixes its processes")

    def substream(self, replication: int) -> "ScenarioSpec":
        """The same scenario keyed to an independent replication stream."""
        return replace(self, seed=(self.seed ^ replication) & _SEED_MASK)


def _scenario_processes(spec: ScenarioSpec) -> tuple[ProcessSpec, ProcessSpec]:
    """(diseased, healthy) process pair for a catalog entry."""
    name = spec.name
    if name in _PROP_NAMES:
        amplitude = 2.0 if name == "P1" else 0.0
        if spec.process == "brownian":
            diseased = ProcessSpec("brownian", scale=spec.rho, mean_amplitude=amplitude)
            healthy = ProcessSpec("brownian")
        else:
            diseased = ProcessSpec("exp_variogram", theta=0.2, scale=spec.rho,
                                   mean_amplitude=amplitude)
            healthy = ProcessSpec("exp_variogram", theta=0.2)
        return diseased, healthy
    if name.startswith("C"):
        lambdas = (2.0, 0.3, 0.05) if name[1] == "1" else (0.3, 2.0, 0.05)
        amplitude = 3.0 if name.endswith("1") else 0.0
        diseased = ProcessSpec("finite_rank", lambdas=lambdas, mean_amplitude=amplitude)
        healthy = ProcessSpec("brownian")
        return diseased, healthy
    # DIFF schemes: diseased is a Brownian motion, healthy varies
    amplitude = 2.0 if name.endswith("1") else 0.0
    diseased = ProcessSpec("brownian", mean_amplitude=amplitude)
    if name[1] == "1":
        healthy = ProcessSpec("ornstein_uhlenbeck", theta=1.0 / 3.0)
    else:
        healthy = ProcessSpec("exp_variogram", theta=0.2)
    return diseased, healthy


def generate_scenario(spec: ScenarioSpec) -> tuple[FunctionalSample, FunctionalSample]:
    """Draw the (diseased, healthy) sample pair of a catalog scenario.

    Bit-identical output for identical specifications, including the seed.
    """
    grid = make_uniform_grid(spec.grid_size)
    rng = np.random.Generator(np.random.Philox(key=spec.seed & _SEED_MASK))
    diseased_spec, healthy_spec = _scenario_processes(spec)
    diseased = sample_gaussian(diseased_spec, grid, spec.n_d, rng)
    healthy = sample_gaussian(healthy_spec, grid, spec.n_h, rng)
    return diseased, healthy
