"""Closed-form ROC results for a pair of multivariate normal score models.

Given diseased and healthy populations N(mu_D, Sigma_D) and
N(mu_H, Sigma_H), every projection beta yields normal scores, so the ROC
curve, the AUC, and the AUC-maximizing direction all have explicit
expressions through the standard normal distribution.  These serve as
oracles for the empirical estimators and as finite-rank stand-ins for the
functional theory.

scipy.special is imported inside the oracles that need it, so importing
funcroc, running studies and analyzing curve files load no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, RangeViolationError
from .estimation import check_mean_gap, spd_inverse, spd_solve, symmetric_matrix
from .grids import frozen_finite

__all__ = [
    "GaussianPair",
    "auc_of_direction",
    "optimal_auc_direction",
    "binormal_roc",
    "youden_direction",
    "pooled_correlation_identity",
    "eigenbasis_optimal_direction",
]


@dataclass(frozen=True)
class GaussianPair:
    """Mean vectors and SPD covariance matrices of the two populations.

    ``pi_d`` is the diseased prevalence in (0, 1), used by the mixture
    correlation identity; it defaults to balanced groups.
    """

    mu_d: np.ndarray
    mu_h: np.ndarray
    sigma_d: np.ndarray
    sigma_h: np.ndarray
    pi_d: float = 0.5

    def __post_init__(self):
        mu_d = frozen_finite(self.mu_d, "mu_d")
        mu_h = frozen_finite(self.mu_h, "mu_h")
        if mu_d.ndim != 1 or mu_h.shape != mu_d.shape:
            raise ValueError("mean vectors must be 1-d and of equal length")
        k = mu_d.size
        for name in ("sigma_d", "sigma_h"):
            sigma = getattr(self, name)
            if np.shape(sigma) != (k, k):
                raise ValueError(f"{name} must be {k} x {k}")
            sigma = symmetric_matrix(sigma, name)
            spd_inverse(sigma, ValueError(f"{name} must be positive definite"))
            object.__setattr__(self, name, sigma)
        if not 0.0 < self.pi_d < 1.0:
            raise ValueError("pi_d must lie in (0, 1)")
        object.__setattr__(self, "mu_d", mu_d)
        object.__setattr__(self, "mu_h", mu_h)

    @property
    def dim(self) -> int:
        return self.mu_d.size

    @property
    def mean_diff(self) -> np.ndarray:
        return self.mu_d - self.mu_h


def _check_beta(g: GaussianPair, beta) -> np.ndarray:
    beta = frozen_finite(beta, "beta")
    if beta.shape != (g.dim,):
        raise ValueError("beta must match the model dimension")
    if not np.any(beta != 0.0):
        raise ValueError("beta must be nonzero")
    return beta


def auc_of_direction(g: GaussianPair, beta) -> float:
    """AUC of the projected scores along beta.

    Equals Phi(beta' (mu_D - mu_H) / sqrt(beta' (Sigma_D + Sigma_H) beta));
    invariant to positive rescaling of beta.
    """
    from scipy.special import ndtr

    beta = _check_beta(g, beta)
    separation = float(beta @ g.mean_diff)
    spread = float(beta @ (g.sigma_d + g.sigma_h) @ beta)
    return float(ndtr(separation / np.sqrt(spread)))


def _unit_direction(g: GaussianPair, message: str) -> np.ndarray:
    """(Sigma_D + Sigma_H)^{-1} (mu_D - mu_H) at unit length; coinciding means
    (``check_mean_gap``) raise ``DegenerateDirectionError(message)``."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        gap = np.linalg.norm(g.mean_diff)
        check_mean_gap(gap, (np.linalg.norm(g.mu_d), np.linalg.norm(g.mu_h)), message)
        direction = spd_solve(g.sigma_d + g.sigma_h, g.mean_diff,
                              ValueError("Sigma_D + Sigma_H must be positive definite"))
        length = float(np.linalg.norm(direction))
    if not 0.0 < length < np.inf:  # NaN fails too
        raise DegenerateDirectionError("optimal direction collapsed to zero or overflowed")
    return direction / length


def optimal_auc_direction(g: GaussianPair) -> np.ndarray:
    """Unit direction maximizing the projected AUC.

    Proportional to (Sigma_D + Sigma_H)^{-1} (mu_D - mu_H); undefined when
    the means coincide, in which case every direction has AUC 1/2.
    """
    return _unit_direction(g, "equal means make every projection an AUC-1/2 coin flip")


def binormal_roc(g: GaussianPair, beta, p):
    """Closed-form ROC value of the beta-projected scores at probability p.

    ``p`` may be a scalar in (0, 1) or an array of such values.
    """
    from scipy.special import ndtr, ndtri

    beta = _check_beta(g, beta)
    p_arr = frozen_finite(p, "p")
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    z_p = ndtri(1.0 - p_arr)
    sd_d = np.sqrt(float(beta @ g.sigma_d @ beta))
    sd_h = np.sqrt(float(beta @ g.sigma_h @ beta))
    shift = float(beta @ (g.mu_h - g.mu_d))
    values = 1.0 - ndtr((shift + sd_h * z_p) / sd_d)
    return float(values) if np.isscalar(p) else values


def youden_direction(g: GaussianPair) -> np.ndarray:
    """Unit direction maximizing the Youden index under equal covariances.

    Requires Sigma_D = Sigma_H up to 1e-10 times their largest entry
    magnitude, a relative tolerance, so rescaling both cannot change the
    outcome.  The result is then the AUC-optimal direction, and the optimal
    threshold along it is the midpoint of the projected means.
    """
    scale = max(float(np.abs(g.sigma_d).max()), float(np.abs(g.sigma_h).max()))
    if np.abs(g.sigma_d - g.sigma_h).max() > 1e-10 * scale:
        raise ValueError("youden_direction requires equal covariance matrices")
    return _unit_direction(g, "equal means admit no optimal direction")


def pooled_correlation_identity(g: GaussianPair, beta) -> tuple[float, float]:
    """Two independent routes to the squared correlation between the
    projected mixture score and the group label.

    The left value comes from raw mixture moments: Cov(<beta, X>, G) with
    G the group indicator, the mixture variance of <beta, X>, and
    Var(G) = pi_D pi_H.  The right value is the closed form
    1 - {1 + 2 pi_D pi_H L^2}^{-1}, where L is the projected mean
    separation over sqrt(2 beta' Gamma_pool beta) and Gamma_pool the
    prevalence-weighted covariance.  The two agree to machine precision.
    """
    beta = _check_beta(g, beta)
    pi_d = g.pi_d
    pi_h = 1.0 - pi_d

    # moment route: mixture expectations of the projected score
    proj_mu_d = float(beta @ g.mu_d)
    proj_mu_h = float(beta @ g.mu_h)
    var_d = float(beta @ g.sigma_d @ beta)
    var_h = float(beta @ g.sigma_h @ beta)
    mean_mix = pi_d * proj_mu_d + pi_h * proj_mu_h
    second_moment = pi_d * (var_d + proj_mu_d**2) + pi_h * (var_h + proj_mu_h**2)
    var_mix = second_moment - mean_mix**2
    cov_with_label = pi_d * proj_mu_d - pi_d * mean_mix
    lhs = cov_with_label**2 / (var_mix * pi_d * pi_h)

    # closed-form route through the pooled-covariance separation ratio
    pooled_var = pi_d * var_d + pi_h * var_h
    separation = proj_mu_d - proj_mu_h
    ratio_sq = separation**2 / (2.0 * pooled_var)
    rhs = 1.0 - 1.0 / (1.0 + 2.0 * pi_d * pi_h * ratio_sq)
    return float(lhs), float(rhs)


def eigenbasis_optimal_direction(mu_diff, eigenvalues, pi_d: float) -> np.ndarray:
    """Optimal direction coordinates when the covariance is diagonal.

    In the eigenbasis of a common covariance operator with eigenvalues
    lambda_l, the AUC-maximizing direction has coordinates
    sqrt(pi_D pi_H) * delta_l / lambda_l, where delta holds the mean
    difference coordinates.  A zero eigenvalue puts the mean difference
    outside the operator range, so the inverse does not exist there.
    """
    mu_diff = frozen_finite(mu_diff, "mu_diff")
    eigenvalues = frozen_finite(eigenvalues, "eigenvalues")
    if mu_diff.shape != eigenvalues.shape or mu_diff.ndim != 1:
        raise ValueError("mu_diff and eigenvalues must be vectors of equal length")
    if not 0.0 < pi_d < 1.0:
        raise ValueError("pi_d must lie in (0, 1)")
    if not np.any(mu_diff != 0.0):
        raise DegenerateDirectionError("mean difference is zero")
    if np.any(eigenvalues <= 0.0):
        raise RangeViolationError(
            "zero eigenvalue: the operator inverse is undefined outside its range"
        )
    return np.sqrt(pi_d * (1.0 - pi_d)) * mu_diff / eigenvalues
