"""Discretized curves on a shared quadrature grid.

Curves are vectors of values over a common set of abscissae in [0, 1], and
every inner product downstream (covariances, projections, discriminant
scores) is the trapezoid quadrature approximation of the corresponding
integral. Grids, curves and samples are immutable after construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "Curve",
    "FunctionalSample",
    "make_uniform_grid",
    "inner_product",
    "norm",
]


def check_finite(values, what: str):
    """``values``, uncopied; a NaN or an inf raises ``ValueError("<what> must be finite")``."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


def frozen_finite(values, what: str) -> np.ndarray:
    """Read-only float copy of ``values``, checked by ``check_finite``."""
    out = check_finite(np.array(values, dtype=float, copy=True), what)
    out.setflags(write=False)
    return out


def quadrature_norm(values: np.ndarray, weights: np.ndarray) -> float:
    """sqrt(sum_i w_i v_i^2): 0 if the squares underflow, inf with no warning if they overflow."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(max(np.dot(values * values, weights), 0.0)))


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


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing abscissae in [0, 1] with composite-trapezoid weights.

    Parameters
    ----------
    points : array-like
        Strictly increasing evaluation points, all inside [0, 1].

    ``weights`` is derived from the points: each point weighs half the gaps
    to its neighbors, so the weights sum to the covered interval length.
    """

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        points = frozen_finite(self.points, "grid points")
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least two points")
        gaps = np.diff(points)
        if np.any(gaps <= 0):
            raise ValueError("grid points must be strictly increasing")
        if points[0] < 0.0 or points[-1] > 1.0:
            raise ValueError("grid points must lie in [0, 1]")
        weights = np.empty_like(points)
        weights[0] = gaps[0] / 2.0
        weights[-1] = gaps[-1] / 2.0
        weights[1:-1] = (gaps[:-1] + gaps[1:]) / 2.0
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.points.size

    def compatible_with(self, other: "Grid") -> bool:
        """True when both grids share the same points, and so the same weights."""
        return self is other or np.array_equal(self.points, other.points)


@dataclass(frozen=True, eq=False)
class Curve:
    """A single discretized curve: one value per grid point."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = frozen_finite(self.values, "curve values")
        if values.shape != (len(self.grid),):
            raise ValueError("curve values must match the grid length")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """A collection of curves sharing one grid.

    ``values`` has one row per subject and one column per grid point.  A
    sample carries no group label: the caller's argument order says which
    sample is diseased and which healthy.
    """

    grid: Grid
    values: np.ndarray

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
    return Grid(points)


def inner_product(f: Curve, g: Curve) -> float:
    """Quadrature inner product: sum_i w_i f(t_i) g(t_i)."""
    if not f.grid.compatible_with(g.grid):
        raise GridMismatchError("operands are defined on different grids")
    # multiply the curve values first so the result is exactly symmetric in f, g
    return float(np.dot(f.values * g.values, f.grid.weights))


def norm(f: Curve) -> float:
    """Quadrature norm sqrt(<f, f>); see ``quadrature_norm``."""
    return quadrature_norm(f.values, f.grid.weights)
