"""Discriminant indexes: scalar rules that score curves.

Six rules are provided.  Three are parameter free (maximum, minimum and
integral of the trajectory).  The mean-difference rule projects onto the
normalized difference of the group mean curves.  The optimal linear rule
maximizes the ratio of the projected mean separation to the projected
standard deviation over a finite-dimensional eigenfunction span, optionally
with a roughness penalty.  The quadratic rule applies a Gaussian
discriminant in the coordinates of the leading eigenfunctions of the
pooled covariance operator, which remains informative when the two groups
differ in covariance rather than in mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .binormal import GaussianPair
from .errors import (
    DegenerateDirectionError,
    GridMismatchError,
    InsufficientSampleError,
    SingularCovarianceError,
    SingularSystemError,
)
from .estimation import (
    EigenSystem,
    choose_dimension,
    pooled_eigensystem,
    project_scores,
    sample_mean,
    spd_inverse,
    symmetric_matrix,
)
from .grids import Curve, FunctionalSample, Grid, Group, frozen_finite, norm

__all__ = [
    "MaxIndex",
    "MinIndex",
    "IntegralIndex",
    "LinearIndex",
    "QuadraticIndex",
    "DiscriminantIndex",
    "PenaltySpec",
    "FitContext",
    "apply_index",
    "index_scores",
    "fit_mean_difference",
    "fit_optimal_linear",
    "fit_quadratic",
    "quadratic_population",
    "second_difference_penalty",
]


@dataclass(frozen=True)
class MaxIndex:
    """Largest value of the trajectory."""


@dataclass(frozen=True)
class MinIndex:
    """Smallest value of the trajectory."""


@dataclass(frozen=True)
class IntegralIndex:
    """Quadrature integral of the trajectory."""


@dataclass(frozen=True)
class LinearIndex:
    """Projection <beta, X> onto a fixed direction.

    Fitted indexes carry a unit-norm ``beta``; the scores and every rank
    statistic built from them are invariant to positive rescaling of beta.
    """

    beta: Curve

    def __post_init__(self):
        if norm(self.beta) == 0.0:
            raise ValueError("beta must be nonzero")


@dataclass(frozen=True)
class QuadraticIndex:
    """Quadratic score -x' L x + 2 a' x of the eigenfunction coordinates x."""

    basis: EigenSystem
    k: int
    lambda_mat: np.ndarray
    alpha_vec: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k <= self.basis.count:
            raise ValueError("k must lie between 1 and the basis count")
        alpha = frozen_finite(self.alpha_vec, "alpha_vec")
        if np.shape(self.lambda_mat) != (self.k, self.k):
            raise ValueError("lambda_mat must be k x k")
        if alpha.shape != (self.k,):
            raise ValueError("alpha_vec must have length k")
        lam = symmetric_matrix(self.lambda_mat, "lambda_mat")
        object.__setattr__(self, "lambda_mat", lam)
        object.__setattr__(self, "alpha_vec", alpha)


DiscriminantIndex = Union[MaxIndex, MinIndex, IntegralIndex, LinearIndex, QuadraticIndex]


@dataclass(frozen=True)
class PenaltySpec:
    """Roughness penalty for the optimal linear fit.

    ``lam`` is the finite, nonnegative penalty weight.  ``matrix``, when
    given, is the penalty Gram matrix in basis coordinates and must match
    the dimension chosen at fit time; when omitted, a second-difference
    curvature Gram matrix of the basis functions is built during fitting.
    """

    lam: float
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:  # NaN fails too
            raise ValueError("penalty weight must be finite and nonnegative")
        if self.matrix is not None:
            shape = np.shape(self.matrix)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError("penalty matrix must be square")
            matrix = symmetric_matrix(self.matrix, "penalty matrix")
            object.__setattr__(self, "matrix", matrix)


def index_scores(idx: DiscriminantIndex, s: FunctionalSample) -> np.ndarray:
    """Evaluate an index on every curve of a sample at once."""
    if isinstance(idx, MaxIndex):
        return s.values.max(axis=1)
    if isinstance(idx, MinIndex):
        return s.values.min(axis=1)
    if isinstance(idx, IntegralIndex):
        return s.values @ s.grid.weights
    if isinstance(idx, LinearIndex):
        if not s.grid.compatible_with(idx.beta.grid):
            raise GridMismatchError("sample and index live on different grids")
        return s.values @ (s.grid.weights * idx.beta.values)
    if isinstance(idx, QuadraticIndex):
        scores = project_scores(s, idx.basis, idx.k)
        quadratic = np.einsum("ij,jk,ik->i", scores, idx.lambda_mat, scores)
        return -quadratic + 2.0 * scores @ idx.alpha_vec
    raise TypeError(f"unknown index type: {type(idx).__name__}")


def apply_index(idx: DiscriminantIndex, x: Curve) -> float:
    """Evaluate an index on a single curve."""
    holder = FunctionalSample(x.grid, x.values[None, :], group=Group.HEALTHY)
    return float(index_scores(idx, holder)[0])


class FitContext:
    """The moments of one draw that the fitted indexes share.

    Holds a (diseased, healthy) sample pair and computes the group means,
    their difference, the group-centered curves and the eigensystem of the
    pooled covariance operator once each, on first use; the eigensystem is
    ``pooled_eigensystem`` of the centered curves.
    Construction does no work and cannot fail; a property whose inputs are
    invalid raises its typed error on every access.
    """

    def __init__(self, d: FunctionalSample, h: FunctionalSample):
        self.d = d
        self.h = h

    @cached_property
    def grid(self) -> Grid:
        """The grid both samples live on."""
        if not self.d.grid.compatible_with(self.h.grid):
            raise GridMismatchError("samples live on different grids")
        return self.d.grid

    @cached_property
    def _means(self) -> tuple[Curve, Curve]:
        """Diseased and healthy mean curves."""
        return sample_mean(self.d), sample_mean(self.h)

    @cached_property
    def _centered(self) -> tuple[np.ndarray, np.ndarray]:
        """Diseased and healthy curves minus their group mean curves."""
        return tuple(s.values - mean.values for s, mean in zip((self.d, self.h), self._means))

    @cached_property
    def mean_diff(self) -> Curve:
        """Diseased minus healthy mean curve."""
        return Curve(self.grid, self._means[0].values - self._means[1].values)

    @cached_property
    def basis(self) -> EigenSystem:
        """The pooled covariance operator's eigenpairs; see ``pooled_eigensystem``."""
        grid = self.grid  # grids are checked before sample sizes
        if self.d.n < 2 or self.h.n < 2:
            raise InsufficientSampleError("both groups need at least two curves")
        return pooled_eigensystem(grid, self._centered, tuple(mean.values for mean in self._means))


def _check_direction_scale(diff_norm: float, ctx: FitContext) -> None:
    # relative to the data's scale, so rescaling the curves cannot change the outcome
    if diff_norm <= 1e-13 * max(norm(ctx._means[0]), norm(ctx._means[1])):
        raise DegenerateDirectionError(
            "group mean curves coincide; no discriminating direction exists"
        )


def fit_mean_difference(ctx: FitContext) -> LinearIndex:
    """Linear index along the normalized difference of the group means."""
    diff = ctx.mean_diff
    length = norm(diff)
    _check_direction_scale(length, ctx)
    return LinearIndex(Curve(ctx.grid, diff.values / length))


def second_difference_penalty(basis: EigenSystem, k: int) -> np.ndarray:
    """Curvature penalty Gram matrix of the first k basis functions.

    Entry (l, r) is the quadrature inner product of the discrete second
    derivatives of basis functions l and r; always symmetric PSD.
    """
    points = basis.grid.points
    slopes = np.gradient(basis.eigenfunctions[:, :k], points, axis=0)
    curvatures = np.gradient(slopes, points, axis=0)
    weighted = basis.grid.weights[:, None] * curvatures
    gram = curvatures.T @ weighted
    return (gram + gram.T) / 2.0


def fit_optimal_linear(
    ctx: FitContext,
    mode: str = "average",
    var_fraction: float = 0.95,
    penalty: PenaltySpec | None = None,
) -> LinearIndex:
    """Linear index maximizing the projected mean separation over noise.

    The search space is the span of the leading eigenfunctions of the
    pooled covariance operator, with the dimension chosen as the smallest
    one explaining ``var_fraction`` of the pooled variability.  ``mode``
    selects the covariance entering the denominator of the criterion:
    ``"pooled"`` (sample-size weighted, appropriate when equal group
    covariances are assumed) or ``"average"`` (unweighted mean of the two
    group covariances, safer when they may differ).  In the pooled case the
    coordinate system diagonalizes the denominator and the solution reduces
    to eigenvalue-rescaled mean-difference coordinates.

    The closed-form maximizer solves (G + lam * P) b = delta in basis
    coordinates, where delta holds the projected mean differences and G the
    projected denominator covariance.  G comes from the centered group
    coordinates A_g = (X_g - mean_g) W Phi_k, as (A_D'A_D / n_D + A_H'A_H / n_H) / 2
    or (A_D'A_D + A_H'A_H) / N, so no m x m covariance is formed.
    The returned direction has unit quadrature norm and nonnegative inner
    product with the mean difference.
    """
    if mode not in ("pooled", "average"):
        raise ValueError(f"unknown mode: {mode!r}")
    diff = ctx.mean_diff
    basis = ctx.basis
    k = choose_dimension(basis, var_fraction)

    grid = ctx.grid
    phi = basis.eigenfunctions[:, :k]
    weighted_phi = grid.weights[:, None] * phi
    delta = weighted_phi.T @ diff.values
    _check_direction_scale(float(np.linalg.norm(delta)), ctx)

    a_d, a_h = (centered @ weighted_phi for centered in ctx._centered)
    if mode == "pooled":
        gram = (a_d.T @ a_d + a_h.T @ a_h) / (ctx.d.n + ctx.h.n)
    else:
        gram = (a_d.T @ a_d / ctx.d.n + a_h.T @ a_h / ctx.h.n) / 2.0
    gram = (gram + gram.T) / 2.0
    if penalty is not None and penalty.lam > 0.0:
        pen = penalty.matrix
        if pen is None:
            pen = second_difference_penalty(basis, k)
        elif pen.shape != (k, k):
            raise ValueError(
                f"penalty matrix has shape {pen.shape}, but the fit selected k={k}"
            )
        gram = gram + penalty.lam * pen

    try:
        factor = np.linalg.cholesky(gram)
        coefficients = np.linalg.solve(factor.T, np.linalg.solve(factor, delta))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "projected covariance system is singular; increase the penalty "
            "weight or lower the variance fraction"
        ) from exc

    beta_values = phi @ coefficients
    # the quadrature norm of ``grids.norm``, also for the non-finite values a Curve rejects;
    # an overflow to inf is raised as DegenerateDirectionError below
    with np.errstate(over="ignore"):
        length = float(np.sqrt(np.dot(beta_values * beta_values, grid.weights)))
    if not 0.0 < length < np.inf:  # NaN fails too
        raise DegenerateDirectionError("optimal direction collapsed to zero or overflowed")
    beta_values = beta_values / length
    if float(np.dot(grid.weights * beta_values, diff.values)) < 0.0:
        beta_values = -beta_values
    return LinearIndex(Curve(grid, beta_values))


def _quadratic_coefficients(
    inv_d: np.ndarray, inv_h: np.ndarray, mu_d: np.ndarray, mu_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(L, a) with L = inv_D - inv_H, symmetrized, and a = inv_D mu_D - inv_H mu_H."""
    lambda_mat = inv_d - inv_h
    return (lambda_mat + lambda_mat.T) / 2.0, inv_d @ mu_d - inv_h @ mu_h


def fit_quadratic(
    ctx: FitContext,
    var_fraction: float = 0.95,
    ridge: float = 0.0,
) -> QuadraticIndex:
    """Gaussian quadratic discriminant in pooled eigenfunction coordinates.

    Both samples are projected onto the leading eigenfunctions of the
    pooled covariance operator; the score means and full covariance
    matrices of each group (divisor n) define the quadratic coefficients
    L = inv(S_D + ridge I) - inv(S_H + ridge I) and
    a = inv(S_D + ridge I) mu_D - inv(S_H + ridge I) mu_H.
    """
    basis = ctx.basis
    if not 0.0 <= ridge < np.inf:  # NaN fails too
        raise ValueError("ridge must be finite and nonnegative")
    k = choose_dimension(basis, var_fraction)
    groups = ((ctx.d, "diseased"), (ctx.h, "healthy"))
    for sample, group in groups:
        if sample.n < k + 1:
            raise InsufficientSampleError(
                f"{group} group has {sample.n} curves but the quadratic fit needs "
                f"at least {k + 1}"
            )

    means, inverses = [], []
    for sample, group in groups:
        scores = project_scores(sample, basis, k)
        means.append(scores.mean(axis=0))
        centered = scores - means[-1]
        sigma = centered.T @ centered / sample.n
        inverses.append(spd_inverse(sigma + ridge * np.eye(k), SingularCovarianceError(group)))
    lambda_mat, alpha_vec = _quadratic_coefficients(*inverses, *means)
    return QuadraticIndex(basis=basis, k=k, lambda_mat=lambda_mat, alpha_vec=alpha_vec)


def quadratic_population(
    mu_d: np.ndarray,
    mu_h: np.ndarray,
    sigma_d: np.ndarray,
    sigma_h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Population quadratic coefficients from exact moments.

    Returns (L, a) with L = inv(Sigma_D) - inv(Sigma_H) and
    a = inv(Sigma_D) mu_D - inv(Sigma_H) mu_H.  For diagonal covariances
    the entries of L reduce to (lambda_H - lambda_D) / (lambda_D lambda_H).
    Moments that ``GaussianPair`` rejects raise its ``ValueError``.
    """
    g = GaussianPair(mu_d, mu_h, sigma_d, sigma_h)
    inverses = (spd_inverse(sigma, ValueError) for sigma in (g.sigma_d, g.sigma_h))
    return _quadratic_coefficients(*inverses, g.mu_d, g.mu_h)
