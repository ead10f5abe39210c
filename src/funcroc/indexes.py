"""Discriminant indexes: scalar rules that score curves.

Six rules are provided.  Three are parameter free: the maximum, the minimum
and the integral of the trajectory, which is its projection onto the constant
curve 1.  The mean-difference rule projects onto the normalized difference of
the group mean curves.  The optimal linear rule maximizes the ratio of the
projected mean separation to the projected standard deviation over a
finite-dimensional eigenfunction span, optionally with a roughness penalty.
The quadratic rule applies a Gaussian discriminant in the coordinates of the
leading eigenfunctions of the pooled covariance operator, which remains
informative when the two groups differ in covariance rather than in mean.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DegenerateDirectionError,
    GridMismatchError,
    InsufficientSampleError,
    SingularCovarianceError,
    SingularSystemError,
)
from .estimation import (
    EigenSystem,
    check_mean_gap,
    choose_dimension,
    pooled_eigensystem,
    project_scores,
    sample_mean,
    spd_inverse,
    spd_solve,
    symmetric_matrix,
)
from .grids import Curve, FunctionalSample, Grid, _buffer, frozen_finite, quadrature_norm

__all__ = [
    "MaxIndex",
    "MinIndex",
    "LinearIndex",
    "QuadraticIndex",
    "DiscriminantIndex",
    "FitContext",
    "index_scores",
    "integral_index",
    "fit_mean_difference",
    "fit_optimal_linear",
    "fit_quadratic",
    "second_difference_penalty",
]


@dataclass(frozen=True)
class MaxIndex:
    """Largest value of the trajectory."""


@dataclass(frozen=True)
class MinIndex:
    """Smallest value of the trajectory."""


@dataclass(frozen=True, eq=False)
class LinearIndex:
    """Projection <beta, X> onto a fixed direction.

    Fitted indexes carry a unit-norm ``beta``; the scores and every rank
    statistic built from them are invariant to positive rescaling of beta.
    """

    beta: Curve

    def __post_init__(self):
        if not np.any(self.beta.values != 0.0):
            raise ValueError("beta must be nonzero")


@dataclass(frozen=True, eq=False)
class QuadraticIndex:
    """Quadratic score -x' L x + 2 a' x of the first k eigenfunction coordinates x."""

    basis: EigenSystem
    lambda_mat: np.ndarray
    alpha_vec: np.ndarray

    def __post_init__(self):
        alpha = frozen_finite(self.alpha_vec, "alpha_vec")
        if alpha.ndim != 1 or not 1 <= alpha.size <= self.basis.count:
            raise ValueError("alpha_vec must be a vector of 1 to basis count entries")
        if np.shape(self.lambda_mat) != (alpha.size, alpha.size):
            raise ValueError("lambda_mat must be k x k")
        object.__setattr__(self, "lambda_mat", symmetric_matrix(self.lambda_mat, "lambda_mat"))
        object.__setattr__(self, "alpha_vec", alpha)

    @property
    def k(self) -> int:
        return self.alpha_vec.size


DiscriminantIndex = Union[MaxIndex, MinIndex, LinearIndex, QuadraticIndex]


@functools.lru_cache(maxsize=16)
def integral_index(grid: Grid) -> LinearIndex:
    """The integral of the trajectory: the ``LinearIndex`` of the constant curve 1.

    Built once per grid object; the 16 most recently used are kept.
    """
    return LinearIndex(Curve(grid, np.ones(len(grid))))


def index_scores(idx: DiscriminantIndex, s: FunctionalSample) -> np.ndarray:
    """Evaluate an index on every curve of a sample at once."""
    if isinstance(idx, MaxIndex):
        return s.values.max(axis=1)
    if isinstance(idx, MinIndex):
        return s.values.min(axis=1)
    if isinstance(idx, LinearIndex):
        if not s.grid.compatible_with(idx.beta.grid):
            raise GridMismatchError("sample and index live on different grids")
        return s.values @ (s.grid.weights * idx.beta.values)
    if isinstance(idx, QuadraticIndex):
        scores = project_scores(s, idx.basis, idx.k)
        quadratic = ((scores @ idx.lambda_mat) * scores).sum(axis=1)
        return -quadratic + 2.0 * scores @ idx.alpha_vec
    raise TypeError(f"unknown index type: {type(idx).__name__}")


class FitContext:
    """The moments of one draw that the fitted indexes share.

    Holds a (diseased, healthy) sample pair on one grid (construction checks
    the grids and does no other work) and computes the group means, their
    norms and the centered curves, the pooled covariance operator's
    eigensystem and the projected group moments once each, on first use,
    into plain per-instance slots.  A failing access fills no slot and
    raises its typed error every time.
    The basis maps back only the k eigenfunctions the fits read; a larger
    fraction later widens that mapping from the same eigensolve.  Private: the
    centered curves are written in ``_buffer(_kept, "centered <group>", ...)``.
    """

    def __init__(self, d: FunctionalSample, h: FunctionalSample, *, _kept: dict | None = None):
        if not d.grid.compatible_with(h.grid):
            raise GridMismatchError("samples live on different grids")
        self.d, self.h, self.grid, self._kept = d, h, d.grid, _kept
        self._group_curves = None  # ((mean_D, mean_H), (norm_D, norm_H), (centered_D, centered_H))
        self._basis: EigenSystem | None = None
        self._moments: dict[float, tuple] = {}

    def _curves(self) -> tuple[tuple[Curve, Curve], tuple[float, float],
                               tuple[np.ndarray, np.ndarray]]:
        """The group mean curves, their quadrature norms and each group's curves minus its mean."""
        if self._group_curves is None:
            means = sample_mean(self.d), sample_mean(self.h)
            norms = tuple(quadrature_norm(mean.values, self.grid.weights) for mean in means)
            centered = tuple(
                np.subtract(s.values, mean.values,
                            out=_buffer(self._kept, f"centered {group}", s.values.shape))
                for s, mean, group in zip((self.d, self.h), means, ("diseased", "healthy")))
            self._group_curves = means, norms, centered
        return self._group_curves

    @property
    def means(self) -> tuple[Curve, Curve]:
        """Diseased and healthy mean curves."""
        return self._curves()[0]

    @property
    def mean_norms(self) -> tuple[float, float]:
        """Quadrature norms of the diseased and healthy mean curves."""
        return self._curves()[1]

    @property
    def basis(self) -> EigenSystem:
        """The pooled covariance operator's eigenpairs; see ``pooled_eigensystem``."""
        if self._basis is None:
            if self.d.n < 2 or self.h.n < 2:
                raise InsufficientSampleError("both groups need at least two curves")
            means, _, centered = self._curves()
            self._basis = pooled_eigensystem(self.grid, centered, tuple(m.values for m in means))
        return self._basis

    def moments(self, var_fraction: float) -> tuple[int, tuple, tuple]:
        """(k, (mu_D, mu_H), (S_D, S_H)): group score moments in the first k eigenfunctions.

        k is ``choose_dimension(basis, var_fraction)``, mu_g the projected group
        mean curve and S_g = A_g'A_g / n_g with A_g = (X_g - mean_g) W Phi_k, so
        no m x m covariance is formed.  Cached per fraction; a failure is not.
        """
        if var_fraction not in self._moments:
            k = choose_dimension(self.basis, var_fraction)
            weighted_phi = self.grid.weights[:, None] * self.basis.leading(k)
            means = tuple(mean.values @ weighted_phi for mean in self.means)
            scores = (centered @ weighted_phi for centered in self._curves()[2])
            covariances = tuple(a.T @ a / s.n for a, s in zip(scores, (self.d, self.h)))
            self._moments[var_fraction] = (k, means, covariances)
        return self._moments[var_fraction]


_COINCIDING_MEANS = "group mean curves coincide; no discriminating direction exists"


def _unit_index(ctx: FitContext, beta: np.ndarray, gap: np.ndarray, what: str) -> LinearIndex:
    """The index along ``beta`` at unit quadrature norm, turned to meet the mean ``gap``
    at a nonnegative inner product; a zero or overflowing norm raises DegenerateDirectionError."""
    length = quadrature_norm(beta, ctx.grid.weights)
    if not 0.0 < length < np.inf:  # NaN fails too
        raise DegenerateDirectionError(f"{what} direction collapsed to zero or overflowed")
    beta = beta / length
    if float(np.dot(ctx.grid.weights * beta, gap)) < 0.0:
        beta = -beta
    return LinearIndex(Curve(ctx.grid, beta))


def fit_mean_difference(ctx: FitContext) -> LinearIndex:
    """Linear index along the normalized difference of the group means."""
    with np.errstate(over="ignore"):  # an overflowing gap has an inf norm, left for _unit_index
        diff = ctx.means[0].values - ctx.means[1].values
    check_mean_gap(quadrature_norm(diff, ctx.grid.weights), ctx.mean_norms, _COINCIDING_MEANS)
    return _unit_index(ctx, diff, diff, "mean-difference")


def second_difference_penalty(basis: EigenSystem, k: int) -> np.ndarray:
    """Curvature penalty Gram matrix of the first k basis functions.

    Entry (l, r) is the quadrature inner product of the discrete second
    derivatives of basis functions l and r; always symmetric PSD.
    """
    points = basis.grid.points
    slopes = np.gradient(basis.leading(k), points, axis=0)
    curvatures = np.gradient(slopes, points, axis=0)
    weighted = np.sqrt(basis.grid.weights)[:, None] * curvatures
    return weighted.T @ weighted


def fit_optimal_linear(
    ctx: FitContext,
    var_fraction: float = 0.95,
    penalty_lambda: float = 0.0,
) -> LinearIndex:
    """Linear index maximizing the projected mean separation over noise.

    The search space is the span of the leading eigenfunctions of the
    pooled covariance operator, with the dimension k chosen as the smallest
    one explaining ``var_fraction`` of the pooled variability.  The
    denominator of the criterion is the unweighted mean of the two group
    covariances, (Gamma_D + Gamma_H) / 2, which stays valid when they differ.

    The closed-form maximizer solves (G + penalty_lambda * P) b = delta in
    basis coordinates, with delta = mu_D - mu_H and G = (S_D + S_H) / 2 from
    ``FitContext.moments`` and P = ``second_difference_penalty(basis, k)``.
    The returned direction has unit quadrature norm and nonnegative inner
    product with the mean difference.
    """
    if not 0.0 <= penalty_lambda < np.inf:  # NaN fails too
        raise ValueError("penalty weight must be finite and nonnegative")
    k, (mu_d, mu_h), (s_d, s_h) = ctx.moments(var_fraction)
    delta = mu_d - mu_h
    check_mean_gap(float(np.linalg.norm(delta)), ctx.mean_norms, _COINCIDING_MEANS)

    gram = (s_d + s_h) / 2.0
    if penalty_lambda > 0.0:
        gram = gram + penalty_lambda * second_difference_penalty(ctx.basis, k)

    coefficients = spd_solve(gram, delta, SingularSystemError(
        "projected covariance system is singular; increase the "
        "penalty weight or lower the variance fraction"))

    diff = ctx.means[0].values - ctx.means[1].values
    return _unit_index(ctx, ctx.basis.leading(k) @ coefficients, diff, "optimal")


def fit_quadratic(
    ctx: FitContext,
    var_fraction: float = 0.95,
    ridge: float = 0.0,
) -> QuadraticIndex:
    """Gaussian quadratic discriminant in pooled eigenfunction coordinates.

    The group score means mu_g and covariances S_g (divisor n) are the
    draw's ``FitContext.moments``; they define the quadratic coefficients
    L = inv(S_D + ridge I) - inv(S_H + ridge I) and
    a = inv(S_D + ridge I) mu_D - inv(S_H + ridge I) mu_H.
    """
    if not 0.0 <= ridge < np.inf:  # NaN fails too
        raise ValueError("ridge must be finite and nonnegative")
    k, means, covariances = ctx.moments(var_fraction)
    groups = ("diseased", "healthy")
    for sample, group in zip((ctx.d, ctx.h), groups):
        if sample.n < k + 1:
            raise InsufficientSampleError(f"{group} group has {sample.n} curves but the "
                                          f"quadratic fit needs at least {k + 1}")
    inv_d, inv_h = (spd_inverse(sigma + ridge * np.eye(k), SingularCovarianceError(group))
                    for sigma, group in zip(covariances, groups))
    return QuadraticIndex(basis=ctx.basis, lambda_mat=inv_d - inv_h,
                          alpha_vec=inv_d @ means[0] - inv_h @ means[1])
