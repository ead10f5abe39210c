"""Discretized curves on a shared quadrature grid.

Curves are vectors of values over a common set of abscissae in [0, 1], and
every inner product downstream (covariances, projections, discriminant
scores) is the trapezoid quadrature approximation of the corresponding
integral. Grids, curves and samples are immutable after construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "Curve",
    "FunctionalSample",
    "Group",
    "make_uniform_grid",
    "inner_product",
    "norm",
]


def frozen_finite(values, what: str) -> np.ndarray:
    """Read-only float copy of ``values``.

    A NaN or infinite entry raises ``ValueError("<what> must be finite")``.
    """
    out = np.array(values, dtype=float, copy=True)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    out.setflags(write=False)
    return out


def store_plain(obj, names, kind: type) -> None:
    """Store the named fields of the frozen dataclass ``obj`` as plain ints or floats.

    ``kind`` is int or float; a bool or a value of another kind raises ValueError.
    """
    abstract, what = ((numbers.Integral, "an integer") if kind is int
                      else (numbers.Real, "a real number"))
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, abstract) or isinstance(value, bool):
            raise ValueError(f"{name} must be {what}")
        object.__setattr__(obj, name, kind(value))


class Group(Enum):
    """Sample label for the two populations under comparison."""

    DISEASED = "D"
    HEALTHY = "H"


@dataclass(frozen=True)
class Grid:
    """Strictly increasing abscissae in [0, 1] with quadrature weights.

    Parameters
    ----------
    points : array-like
        Strictly increasing evaluation points, all inside [0, 1].
    weights : array-like
        Nonnegative quadrature weights of the same length. They must sum to
        the covered interval length (trapezoid consistency).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = frozen_finite(self.points, "grid points and weights")
        weights = frozen_finite(self.weights, "grid points and weights")
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least two points")
        if weights.shape != points.shape:
            raise ValueError("points and weights must have equal length")
        if np.any(np.diff(points) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if points[0] < 0.0 or points[-1] > 1.0:
            raise ValueError("grid points must lie in [0, 1]")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        span = points[-1] - points[0]
        if abs(weights.sum() - span) > 1e-12:
            raise ValueError("weights must sum to the covered interval length")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_points(cls, points) -> "Grid":
        """Build a grid with composite-trapezoid weights for the given points."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least two points")
        gaps = np.diff(points)
        weights = np.empty_like(points)
        weights[0] = gaps[0] / 2.0
        weights[-1] = gaps[-1] / 2.0
        weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2.0
        return cls(points, weights)

    def __len__(self) -> int:
        return self.points.size

    @property
    def span(self) -> float:
        """Length of the covered interval."""
        return float(self.points[-1] - self.points[0])

    def compatible_with(self, other: "Grid") -> bool:
        """True when both grids share the same points and weights."""
        if self is other:
            return True
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.weights, other.weights
        )


def _require_same_grid(a: Grid, b: Grid) -> None:
    if not a.compatible_with(b):
        raise GridMismatchError("operands are defined on different grids")


@dataclass(frozen=True)
class Curve:
    """A single discretized curve: one value per grid point."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = frozen_finite(self.values, "curve values")
        if values.shape != (len(self.grid),):
            raise ValueError("curve values must match the grid length")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FunctionalSample:
    """A labeled collection of curves sharing one grid.

    ``values`` has one row per subject and one column per grid point.
    """

    grid: Grid
    values: np.ndarray
    group: Group

    def __post_init__(self):
        values = frozen_finite(self.values, "sample values")
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("a sample needs at least one curve")
        if values.shape[1] != len(self.grid):
            raise ValueError("sample columns must match the grid length")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def make_uniform_grid(m: int) -> Grid:
    """Uniform grid of ``m`` points t_i = i/m with trapezoid weights.

    The left endpoint 0 is excluded, which keeps covariance kernels that
    vanish at the origin strictly positive definite on the grid.

    Parameters
    ----------
    m : int
        Number of grid points, at least 2.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError("m must be an integer >= 2")
    points = np.arange(1, m + 1, dtype=float) / m
    return Grid.from_points(points)


def inner_product(f: Curve, g: Curve) -> float:
    """Quadrature inner product: sum_i w_i f(t_i) g(t_i)."""
    _require_same_grid(f.grid, g.grid)
    # multiply the curve values first so the result is exactly symmetric in f, g
    return float(np.dot(f.values * g.values, f.grid.weights))


def norm(f: Curve) -> float:
    """Quadrature norm sqrt(<f, f>); zero exactly when f vanishes on the grid."""
    return float(np.sqrt(max(inner_product(f, f), 0.0)))
