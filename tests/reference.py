"""Reference implementations that only the tests use.

The package computes none of these at run time.  They are definitions the
tests check the runtime path against: the empirical distribution and
quantile functions behind the ROC estimators, the population quadratic
coefficients, and the closed-form optimal directions and mixture identity
of the binormal model.  ``quadratic_population`` inverts with
``np.linalg.inv``, not the fitter's Cholesky route, so it can catch a fault
there.
"""

import numpy as np

from funcroc import DegenerateDirectionError, GaussianPair, RangeViolationError
from funcroc.binormal import _check_beta
from funcroc.estimation import check_mean_gap, spd_solve
from funcroc.grids import frozen_finite


def ecdf(sample, t):
    """Empirical distribution function (1/n) #{i : y_i <= t}.

    ``t`` may be a scalar or an array; the return type matches.
    """
    values = frozen_finite(sample, "sample")
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    result = np.searchsorted(np.sort(values), frozen_finite(t, "t"), side="right") / values.size
    return float(result) if np.isscalar(t) else result


def equantile(sample, p: float) -> float:
    """Generalized inverse of the empirical distribution at p in (0, 1].

    Returns the ceil(n p)-th order statistic.
    """
    values = frozen_finite(sample, "sample")
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    # subtract a hair before ceil so n*p landing on an integer is not bumped up
    rank = min(max(int(np.ceil(values.size * p - 1e-9)), 1), values.size)
    return float(np.sort(values)[rank - 1])


def quadratic_population(mu_d, mu_h, sigma_d, sigma_h) -> tuple[np.ndarray, np.ndarray]:
    """Population quadratic coefficients from exact moments.

    Returns (L, a) with L = inv(Sigma_D) - inv(Sigma_H), symmetrized, and
    a = inv(Sigma_D) mu_D - inv(Sigma_H) mu_H.  For diagonal covariances
    the entries of L reduce to (lambda_H - lambda_D) / (lambda_D lambda_H).
    Moments that ``GaussianPair`` rejects raise its ``ValueError``.
    """
    g = GaussianPair(mu_d, mu_h, sigma_d, sigma_h)
    inv_d, inv_h = np.linalg.inv(g.sigma_d), np.linalg.inv(g.sigma_h)
    lambda_mat = inv_d - inv_h
    return (lambda_mat + lambda_mat.T) / 2.0, inv_d @ g.mu_d - inv_h @ g.mu_h


def _unit_direction(g: GaussianPair, message: str) -> np.ndarray:
    """(Sigma_D + Sigma_H)^{-1} (mu_D - mu_H) at unit length; coinciding means
    (``check_mean_gap``) raise ``DegenerateDirectionError(message)``.

    The means are first divided by an exact power of two near their largest
    magnitude, so their norms neither underflow nor overflow at any scale.
    """
    _, exponent = np.frexp(max(np.abs(g.mu_d).max(), np.abs(g.mu_h).max()))
    mu_d, mu_h = np.ldexp(g.mu_d, -exponent), np.ldexp(g.mu_h, -exponent)
    gap = mu_d - mu_h
    check_mean_gap(np.linalg.norm(gap), (np.linalg.norm(mu_d), np.linalg.norm(mu_h)), message)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        direction = spd_solve(g.sigma_d + g.sigma_h, gap,
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


def pooled_correlation_identity(g: GaussianPair, beta, pi_d: float) -> tuple[float, float]:
    """Two independent routes to the squared correlation between the
    projected mixture score and the group label, at diseased prevalence
    ``pi_d`` in (0, 1).

    The left value comes from raw mixture moments: Cov(<beta, X>, G) with
    G the group indicator, the mixture variance of <beta, X>, and
    Var(G) = pi_D pi_H.  The right value is the closed form
    1 - {1 + 2 pi_D pi_H L^2}^{-1}, where L is the projected mean
    separation over sqrt(2 beta' Gamma_pool beta) and Gamma_pool the
    prevalence-weighted covariance.  The two agree to machine precision.
    """
    beta = _check_beta(g, beta)
    if not 0.0 < pi_d < 1.0:
        raise ValueError("pi_d must lie in (0, 1)")
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
