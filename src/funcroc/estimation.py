"""Sample means, covariance operators and their spectral decompositions.

The discretized covariance operator acts on curve values through the
quadrature weights, (Gamma f)(s) = sum_j K(s, t_j) w_j f(t_j).  Its
eigenproblem is solved in the symmetrized form W^{1/2} K W^{1/2}, which
keeps the spectrum real and yields eigenfunctions orthonormal under the
quadrature inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DegenerateOperatorError,
    GridMismatchError,
    InsufficientSampleError,
    InvalidKernelError,
    NumericalDegeneracyError,
)
from .grids import Curve, FunctionalSample, Grid, check_finite, frozen_finite

__all__ = [
    "CovarianceKernel",
    "EigenSystem",
    "sample_mean",
    "sample_covariance",
    "combine_covariances",
    "eigendecompose",
    "pooled_eigensystem",
    "choose_dimension",
    "project_scores",
]


def symmetric_matrix(value, name: str, error: type[Exception] = ValueError) -> np.ndarray:
    """Read-only float copy of a square matrix, checked to be finite and symmetric.

    A NaN or infinite entry raises ``ValueError("<name> must be finite")``.
    The symmetry tolerance is relative: an asymmetry above 1e-10 times the
    largest entry magnitude raises ``error("<name> must be symmetric")``, so
    rescaling the matrix cannot change the outcome.
    """
    matrix = frozen_finite(value, name)
    if np.abs(matrix - matrix.T).max() > 1e-10 * float(np.abs(matrix).max()):
        raise error(f"{name} must be symmetric")
    return matrix


def check_mean_gap(gap: float, mean_norms, message: str) -> None:
    """Raise ``DegenerateDirectionError(message)`` if the gap between two means is at
    most 1e-13 times the larger of their ``mean_norms``: rescaling cannot change the outcome."""
    if gap <= 1e-13 * max(mean_norms):
        raise DegenerateDirectionError(message)


def spd_solve(matrix: np.ndarray, rhs: np.ndarray, error: Exception) -> np.ndarray:
    """x with ``matrix @ x = rhs`` from the Cholesky factor L: L y = rhs, then L' x = y.

    Raises ``error`` if the matrix is not SPD; a non-finite matrix may give a non-finite x."""
    try:
        factor = np.linalg.cholesky(matrix)
        return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
    except np.linalg.LinAlgError as exc:
        raise error from exc


def spd_inverse(matrix: np.ndarray, error: Exception) -> np.ndarray:
    """Inverse of an SPD matrix from its Cholesky factor L, as inv(L)' inv(L).

    Raises ``error`` if the matrix is not finite and SPD or if its inverse
    overflows.
    """
    if np.isfinite(matrix).all():
        try:
            factor_inverse = np.linalg.inv(np.linalg.cholesky(matrix))
        except np.linalg.LinAlgError as exc:
            raise error from exc
        with np.errstate(over="ignore"):  # an overflowing inverse raises ``error`` below
            inverse = factor_inverse.T @ factor_inverse
        if np.isfinite(inverse).all():
            return inverse
    raise error


@dataclass(frozen=True, eq=False)
class CovarianceKernel:
    """A discretized covariance operator: entry (i, j) approximates gamma(t_i, t_j)."""

    grid: Grid
    matrix: np.ndarray

    def __post_init__(self):
        m = len(self.grid)
        if np.shape(self.matrix) != (m, m):
            raise ValueError("kernel matrix must be square and match the grid")
        matrix = symmetric_matrix(self.matrix, "kernel matrix", InvalidKernelError)
        object.__setattr__(self, "matrix", matrix)


class EigenSystem:
    """Leading eigenpairs of a covariance operator.

    ``eigenvalues`` are nonincreasing and nonnegative (negative numerical
    eigenvalues are clipped to zero); ``count`` is their number.
    ``total_variance`` is the variability of the whole operator, so that
    explained-variability fractions refer to the whole decomposition even
    when only the leading part is retained: the sum of the full clipped
    spectrum when the m x m kernel was decomposed, and of the retained
    eigenvalues (every pair above the rounding floor) when they come from the
    N x N Gram form of N < m centered curves.

    ``map_back(k)`` returns an m x k matrix whose column l is the l-th
    eigenfunction on the grid, the columns orthonormal under the quadrature
    inner product.  ``leading(k)`` calls it on first use and keeps a checked,
    sign-fixed copy, the widest set mapped (a wider request maps again, it
    never solves again); ``eigenfunctions`` is ``leading(count)``.  A basis at
    hand is given as ``map_back=lambda k: functions[:, :k]``.  A non-finite
    eigenvalue, total variance or eigenfunction raises ValueError, as does a
    map-back that is not m x k.
    """

    def __init__(self, grid: Grid, eigenvalues: np.ndarray, total_variance: float,
                 map_back: Callable[[int], np.ndarray]):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        if self.eigenvalues.ndim != 1:
            raise ValueError("eigenvalues must be one-dimensional")
        check_finite(self.eigenvalues, "eigenvalues")
        self.total_variance = check_finite(total_variance, "total_variance")
        self.grid, self._map_back = grid, map_back
        self._mapped = np.empty((len(grid), 0))  # the widest set mapped so far

    @property
    def count(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenfunctions(self) -> np.ndarray:
        return self.leading(self.count)

    def leading(self, k: int) -> np.ndarray:
        """The first k eigenfunctions as an m x k matrix, mapped back on first use.

        No lock: threads sharing one system may map columns twice; each gets its k.
        """
        if not 1 <= k <= self.count:
            raise ValueError("k must lie between 1 and the basis count")
        mapped = self._mapped
        if mapped.shape[1] < k:
            mapped = self._map_back(k)
            if np.shape(mapped) != (len(self.grid), k):
                raise ValueError("eigenfunctions must be an m x k matrix")
            self._mapped = mapped = check_finite(_fix_signs(mapped), "eigenfunctions")
        return mapped[:, :k]


def sample_mean(s: FunctionalSample) -> Curve:
    """Pointwise mean curve of a sample; a mean that overflows raises NumericalDegeneracyError."""
    with np.errstate(over="ignore"):
        mean = s.values.mean(axis=0)
    if not np.isfinite(mean).all():
        raise NumericalDegeneracyError("a group mean curve overflowed; rescale the curves")
    return Curve(s.grid, mean)


def sample_covariance(s: FunctionalSample) -> CovarianceKernel:
    """Sample covariance kernel with divisor n.

    Entry (i, j) is the average over subjects of the centered products
    (X - Xbar)(t_i) (X - Xbar)(t_j).
    """
    if s.n < 2:
        raise InsufficientSampleError("covariance estimation needs at least two curves")
    centered = s.values - s.values.mean(axis=0)
    return CovarianceKernel(s.grid, centered.T @ centered / s.n)


def combine_covariances(
    a: CovarianceKernel,
    b: CovarianceKernel,
    mode: str,
    n_a: int | None = None,
    n_b: int | None = None,
) -> CovarianceKernel:
    """Convex combination of two covariance kernels.

    ``mode="pooled"`` weights by sample sizes n_a/(n_a+n_b) and
    n_b/(n_a+n_b); ``mode="average"`` weights both by 1/2.
    """
    if not a.grid.compatible_with(b.grid):
        raise GridMismatchError("covariance kernels live on different grids")
    if mode == "pooled":
        if n_a is None or n_b is None or n_a < 1 or n_b < 1:
            raise ValueError("pooled mode requires positive sample sizes n_a and n_b")
        total = n_a + n_b
        w_a, w_b = n_a / total, n_b / total
    elif mode == "average":
        w_a = w_b = 0.5
    else:
        raise ValueError(f"unknown combination mode: {mode!r}")
    return CovarianceKernel(a.grid, w_a * a.matrix + w_b * b.matrix)


def eigendecompose(kernel: CovarianceKernel, count: int) -> EigenSystem:
    """Solve the weighted eigenproblem of a discretized covariance operator.

    Returns the ``count`` leading eigenpairs.  Eigenfunction signs are fixed
    so that the largest-magnitude coordinate of each eigenfunction is
    positive, which makes decompositions deterministic across runs.
    """
    m = len(kernel.grid)
    if not 1 <= count <= m:
        raise ValueError("count must lie between 1 and the grid size")
    sqrt_w = np.sqrt(kernel.grid.weights)
    symmetrized = sqrt_w[:, None] * kernel.matrix * sqrt_w[None, :]
    # a kernel from outside is symmetric only to symmetric_matrix's tolerance
    return _weighted_eigensystem(kernel.grid, (symmetrized + symmetrized.T) / 2.0, count)


def pooled_eigensystem(
    grid: Grid, centered: tuple[np.ndarray, ...], means: tuple[np.ndarray, ...]
) -> EigenSystem:
    """Eigenpairs of the pooled covariance operator with kernel sum_g X_g'X_g / N.

    ``centered`` holds each group's centered curves X_g as rows, N curves in
    all, and ``means`` the group mean curves they were centered by.  With
    N >= m the groups' cross products are summed without stacking the
    curves and scaled to the symmetrized form W^{1/2} K W^{1/2} once; all m
    eigenvalues are kept, as ``eigendecompose`` of the pooled kernel would
    give them up to rounding.  With N < m, Z = X W^{1/2} / sqrt(N) of the
    stacked curves has an N x N Gram matrix Z Z' that shares the operator's
    nonzero eigenvalues, and an eigenvector u maps back to the eigenfunction
    Z'u / (sqrt(lambda) sqrt(w)); this costs O(N^2 m) rather than O(m^3).
    Only the pairs above N * eps * lambda_max (the operator's rank) are
    kept, and ``total_variance`` is their sum, so a fraction of 1.0 is
    always attained.  Both routes build their matrix exactly symmetric (X'X and
    Z Z' are mirrored BLAS syrk products) and solve it once with LAPACK's
    divide-and-conquer dsyevd (``np.linalg.eigh``) and pass the system a map-back of
    the first k eigenvectors, so a fit maps only the k columns it reads.

    Centering N curves of quadrature mean square S leaves errors of about
    N eps sqrt(S) in each curve, so a trace at or below (N eps)^2 S is
    noise: the curves are constant within each group up to rounding, and
    DegenerateOperatorError is raised before the eigensolve.
    """
    n = sum(x.shape[0] for x in centered)
    sqrt_w = np.sqrt(grid.weights)
    full = n >= len(grid)
    if full:
        matrix = sum(x.T @ x for x in centered)
        matrix *= np.outer(sqrt_w, sqrt_w) / n
    else:
        scaled = np.vstack(centered)
        scaled *= sqrt_w / np.sqrt(n)
        matrix = scaled @ scaled.T
    trace = float(np.trace(matrix))
    # S is the trace plus the group means' share of the raw mean square
    mean_square = trace + sum(
        x.shape[0] * (mean**2 @ grid.weights) for x, mean in zip(centered, means)
    ) / n
    if trace <= (n * np.finfo(float).eps) ** 2 * mean_square:
        raise DegenerateOperatorError("operator has an all-zero spectrum")
    if full:
        return _weighted_eigensystem(grid, matrix, len(grid))
    values, vectors = np.linalg.eigh(matrix)
    values, vectors = values[::-1], vectors[:, ::-1]
    count = int(np.count_nonzero(values > n * np.finfo(float).eps * max(values[0], 0.0)))
    values = values[:count].copy()

    def map_back(k: int) -> np.ndarray:
        return (scaled.T @ vectors[:, :k]) / (np.sqrt(values[:k]) * sqrt_w[:, None])
    return EigenSystem(grid, values, float(values.sum()), map_back)


def _weighted_eigensystem(grid: Grid, symmetrized: np.ndarray, count: int) -> EigenSystem:
    """The ``count`` leading pairs of W^{1/2} K W^{1/2}, eigenfunctions mapped on demand.

    ``symmetrized`` must be exactly symmetric.  ``total_variance`` is the sum
    of the whole clipped spectrum.
    """
    sqrt_w = np.sqrt(grid.weights)
    # LAPACK dsyevd (divide and conquer), 1.3-1.7x faster than dsyevr at m = 100
    values, vectors = np.linalg.eigh(symmetrized)
    values, vectors = np.clip(values[::-1], 0.0, None), vectors[:, ::-1]

    def map_back(k: int) -> np.ndarray:
        return np.ascontiguousarray(vectors[:, :k]) / sqrt_w[:, None]
    return EigenSystem(grid, values[:count].copy(), float(values.sum()), map_back)


def _fix_signs(functions: np.ndarray) -> np.ndarray:
    """A copy of ``functions`` with each column's largest-magnitude coordinate made positive."""
    peaks = functions[np.argmax(np.abs(functions), axis=0), np.arange(functions.shape[1])]
    return functions * np.where(peaks < 0, -1.0, 1.0)


def choose_dimension(e: EigenSystem, fraction: float) -> int:
    """Smallest k whose leading eigenvalues explain at least ``fraction``.

    The denominator is the total variance of the full decomposition the
    system was computed from, not just the retained part.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if e.total_variance <= 0.0:
        raise DegenerateOperatorError("operator has an all-zero spectrum")
    cumulative = np.cumsum(e.eigenvalues)
    # tiny slack so exact-boundary fractions are not lost to roundoff
    target = fraction * e.total_variance * (1.0 - 1e-12)
    reached = np.nonzero(cumulative >= target)[0]
    if reached.size == 0:
        raise ValueError(
            "requested fraction is not attained by the retained eigenvalues; "
            "decompose with a larger count"
        )
    return int(reached[0]) + 1


def project_scores(s: FunctionalSample, basis: EigenSystem, k: int) -> np.ndarray:
    """Quadrature projections of each curve onto the first k eigenfunctions.

    Returns an (n, k) matrix with entry (i, l) = <X_i, phi_l>.
    """
    if not s.grid.compatible_with(basis.grid):
        raise GridMismatchError("sample and basis live on different grids")
    weighted = basis.grid.weights[:, None] * basis.leading(k)
    return s.values @ weighted
