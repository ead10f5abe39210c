"""Closed-form ROC results for a pair of multivariate normal score models.

Given diseased and healthy populations N(mu_D, Sigma_D) and
N(mu_H, Sigma_H), every projection beta yields normal scores, so the ROC
curve and the AUC have explicit expressions through the standard normal
distribution.  These serve as oracles for the empirical estimators and as
finite-rank stand-ins for the functional theory.  The AUC- and
Youden-optimal directions and the mixture-correlation identity, which only
the tests use, live in the test suite's reference module.

The oracles import ``statistics.NormalDist`` when called: ``import statistics`` takes 2.5-4.6 ms
(mostly ``fractions`` and ``decimal``), which a module-level import would add to every start-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import spd_inverse, symmetric_matrix
from .grids import frozen_finite

__all__ = ["GaussianPair", "auc_of_direction", "binormal_roc"]


@dataclass(frozen=True, eq=False)
class GaussianPair:
    """Mean vectors and SPD covariance matrices of the two populations."""

    mu_d: np.ndarray
    mu_h: np.ndarray
    sigma_d: np.ndarray
    sigma_h: np.ndarray

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
    from statistics import NormalDist  # when called: see the module docstring

    beta = _check_beta(g, beta)
    separation = float(beta @ g.mean_diff)
    spread = float(beta @ (g.sigma_d + g.sigma_h) @ beta)
    return NormalDist().cdf(separation / np.sqrt(spread))


def binormal_roc(g: GaussianPair, beta, p):
    """Closed-form ROC value Phi((beta' (mu_D - mu_H) + sd_H Phi^-1(p)) / sd_D) at p.

    sd_g = sqrt(beta' Sigma_g beta); ``p`` is a scalar in (0, 1) or an array of such values.
    """
    from statistics import NormalDist  # when called: see the module docstring

    beta = _check_beta(g, beta)
    p_arr = frozen_finite(p, "p")
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    z_p = np.vectorize(NormalDist().inv_cdf, otypes=[float])(p_arr)
    sd_d = np.sqrt(float(beta @ g.sigma_d @ beta))
    sd_h = np.sqrt(float(beta @ g.sigma_h @ beta))
    separation = float(beta @ g.mean_diff)
    values = np.vectorize(NormalDist().cdf, otypes=[float])((separation + sd_h * z_p) / sd_d)
    return float(values) if np.isscalar(p) else values[()]
