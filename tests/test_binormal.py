import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import ndtr, ndtri

from funcroc import (
    DegenerateDirectionError,
    GaussianPair,
    auc_of_direction,
    binormal_roc,
)
from reference import (
    RangeViolationError,
    eigenbasis_optimal_direction,
    optimal_auc_direction,
    pooled_correlation_identity,
    youden_direction,
)


def random_pair(rng, k=4, equal_cov=False, equal_means=False):
    a = rng.standard_normal((k, k))
    sigma_d = a @ a.T + k * np.eye(k)
    if equal_cov:
        sigma_h = sigma_d.copy()
    else:
        b = rng.standard_normal((k, k))
        sigma_h = b @ b.T + k * np.eye(k)
    mu_d = rng.standard_normal(k)
    mu_h = mu_d.copy() if equal_means else rng.standard_normal(k)
    return GaussianPair(mu_d, mu_h, sigma_d, sigma_h)


class TestGaussianPair:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["sigma_d", "sigma_h"])
    def test_non_finite_covariance_rejected(self, which, bad):
        sigmas = {"sigma_d": np.eye(2), "sigma_h": np.eye(2)}
        sigmas[which][1, 1] = bad
        with pytest.raises(ValueError, match=f"^{which} must be finite$"):
            GaussianPair(np.ones(2), np.zeros(2), **sigmas)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["mu_d", "mu_h"])
    def test_non_finite_mean_rejected(self, which, bad):
        means = {"mu_d": np.ones(2), "mu_h": np.zeros(2)}
        means[which][1] = bad
        with pytest.raises(ValueError, match=f"^{which} must be finite$"):
            GaussianPair(**means, sigma_d=np.eye(2), sigma_h=np.eye(2))


UNIT_PAIR = GaussianPair(np.ones(2), np.zeros(2), np.eye(2), np.eye(2))


@pytest.mark.parametrize(
    "call, which",
    [
        (lambda: auc_of_direction(UNIT_PAIR, [np.nan, 1.0]), "beta"),
        (lambda: pooled_correlation_identity(UNIT_PAIR, [np.nan, 1.0], 0.5), "beta"),
        (lambda: binormal_roc(UNIT_PAIR, [1.0, 0.0], np.nan), "p"),
        (lambda: binormal_roc(UNIT_PAIR, [1.0, 0.0], [0.5, np.nan]), "p"),
        (lambda: eigenbasis_optimal_direction([1.0, np.nan], [1.0, np.nan], 0.5), "mu_diff"),
        (lambda: eigenbasis_optimal_direction([1.0, 0.5], [1.0, np.inf], 0.5), "eigenvalues"),
    ],
    ids=["auc-beta", "identity-beta", "roc-p", "roc-p-array", "eigen-mu_diff",
         "eigen-eigenvalues"],
)
def test_oracles_reject_non_finite_input(call, which):
    with pytest.raises(ValueError, match=f"^{which} must be finite$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GaussianPair(np.ones(2), np.zeros(3), np.eye(2), np.eye(2)),
         "mean vectors must be 1-d and of equal length"),
        (lambda: GaussianPair(np.ones((2, 1)), np.zeros((2, 1)), np.eye(2), np.eye(2)),
         "mean vectors must be 1-d and of equal length"),
        (lambda: GaussianPair(np.ones(2), np.zeros(2), np.eye(3), np.eye(2)),
         "sigma_d must be 2 x 2"),
        (lambda: GaussianPair(np.ones(2), np.zeros(2), np.eye(2), np.ones(2)),
         "sigma_h must be 2 x 2"),
        (lambda: auc_of_direction(UNIT_PAIR, [1.0]), "beta must match the model dimension"),
        (lambda: binormal_roc(UNIT_PAIR, [[1.0, 0.0]], 0.5), "beta must match the model dimension"),
    ],
    ids=["mean-lengths", "mean-matrix", "sigma_d", "sigma_h", "auc-beta", "roc-beta"],
)
def test_misshapen_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestAucOfDirection:
    def test_equal_means_give_coin_flip_for_every_direction(self):
        rng = np.random.default_rng(0)
        g = random_pair(rng, equal_means=True)
        for _ in range(10):
            beta = rng.standard_normal(g.dim)
            assert auc_of_direction(g, beta) == pytest.approx(0.5, abs=1e-12)

    def test_univariate_value(self):
        g = GaussianPair(
            np.array([1.0]), np.array([0.0]), np.array([[0.5]]), np.array([[0.5]])
        )
        assert auc_of_direction(g, np.array([2.0])) == pytest.approx(
            float(ndtr(1.0)), abs=1e-12
        )

    @pytest.mark.parametrize("c", [0.1, 2.0, 1e4])
    def test_positive_scaling_invariance(self, c):
        rng = np.random.default_rng(1)
        g = random_pair(rng)
        beta = rng.standard_normal(g.dim)
        assert auc_of_direction(g, beta) == pytest.approx(
            auc_of_direction(g, c * beta), abs=1e-12
        )

    def test_zero_direction_rejected(self):
        g = random_pair(np.random.default_rng(2))
        with pytest.raises(ValueError):
            auc_of_direction(g, np.zeros(g.dim))


class TestOptimalAucDirection:
    def test_identity_covariance_returns_the_mean_gap(self):
        g = GaussianPair(
            np.array([1.0, 0.0]), np.zeros(2), np.eye(2), np.eye(2)
        )
        assert np.allclose(optimal_auc_direction(g), [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_random_search(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_pair(rng)
        best = auc_of_direction(g, optimal_auc_direction(g))
        for _ in range(1000):
            candidate = rng.standard_normal(g.dim)
            assert auc_of_direction(g, candidate) <= best + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_maximal_value_closed_form(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_pair(rng)
        diff = g.mean_diff
        exact = float(ndtr(np.sqrt(diff @ np.linalg.solve(g.sigma_d + g.sigma_h, diff))))
        assert auc_of_direction(g, optimal_auc_direction(g)) == pytest.approx(
            exact, abs=1e-12
        )

    def test_equal_means_degenerate(self):
        g = random_pair(np.random.default_rng(3), equal_means=True)
        with pytest.raises(DegenerateDirectionError):
            optimal_auc_direction(g)

    def test_result_is_unit_norm(self):
        g = random_pair(np.random.default_rng(4))
        assert np.linalg.norm(optimal_auc_direction(g)) == pytest.approx(1.0, abs=1e-12)


class TestBinormalRoc:
    def test_identical_populations_give_the_diagonal(self):
        rng = np.random.default_rng(5)
        g = random_pair(rng, equal_cov=True, equal_means=True)
        beta = rng.standard_normal(g.dim)
        p = np.linspace(0.01, 0.99, 33)
        assert np.abs(binormal_roc(g, beta, p) - p).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_covariance_shift_form(self, seed):
        # ROC(p) = Phi(sqrt(2) L - z_p) with L the separation ratio
        rng = np.random.default_rng(300 + seed)
        g = random_pair(rng, equal_cov=True)
        beta = rng.standard_normal(g.dim)
        sep = float(beta @ g.mean_diff)
        ratio = sep / np.sqrt(float(beta @ (g.sigma_d + g.sigma_h) @ beta))
        p = np.linspace(0.02, 0.98, 25)
        z_p = ndtri(1.0 - p)
        expected = ndtr(np.sqrt(2.0) * ratio - z_p)
        assert np.abs(binormal_roc(g, beta, p) - expected).max() < 1e-12

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(6)
        g = random_pair(rng)
        beta = optimal_auc_direction(g)
        n = 100_000
        d_scores = rng.multivariate_normal(g.mu_d, g.sigma_d, n) @ beta
        h_scores = rng.multivariate_normal(g.mu_h, g.sigma_h, n) @ beta

        from funcroc import ScoreSample, roc_curve

        summary = roc_curve(ScoreSample(d_scores, h_scores))
        interior = slice(1, -1)
        exact = binormal_roc(g, beta, summary.p_grid[interior])
        assert np.abs(summary.roc_values[interior] - exact).max() <= 0.01

    def test_integrates_to_the_auc(self):
        rng = np.random.default_rng(7)
        g = random_pair(rng)
        beta = rng.standard_normal(g.dim)
        p = np.linspace(1e-6, 1 - 1e-6, 20001)
        area = trapezoid(binormal_roc(g, beta, p), p)
        assert area == pytest.approx(auc_of_direction(g, beta), abs=1e-4)

    @pytest.mark.parametrize("p", [1e-20, 2.0**-54, 1e-12])
    def test_small_probabilities_keep_full_precision(self, p):
        # ROC(p) = Phi(Phi^-1(p) / 100); 1 - p rounds to 1 below 2^-54 and loses digits above
        g = GaussianPair(np.zeros(1), np.zeros(1), [[1e4]], [[1.0]])
        expected = float(ndtr(ndtri(p) / 100.0))
        assert binormal_roc(g, [1.0], p) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_boundary_probabilities(self, p):
        g = random_pair(np.random.default_rng(8))
        with pytest.raises(ValueError):
            binormal_roc(g, np.ones(g.dim), p)


class TestYoudenDirection:
    def test_identity_covariance(self):
        g = GaussianPair(
            np.array([0.0, 2.0]), np.zeros(2), np.eye(2), np.eye(2)
        )
        assert np.allclose(youden_direction(g), [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_auc_direction_under_equal_covariance(self, seed):
        g = random_pair(np.random.default_rng(400 + seed), equal_cov=True)
        assert np.allclose(youden_direction(g), optimal_auc_direction(g), atol=1e-10)

    def test_unequal_covariances_rejected(self):
        g = random_pair(np.random.default_rng(9))
        with pytest.raises(ValueError):
            youden_direction(g)

    def test_equal_means_degenerate(self):
        g = random_pair(np.random.default_rng(10), equal_cov=True, equal_means=True)
        with pytest.raises(DegenerateDirectionError):
            youden_direction(g)


SCALES = [1e-20, 1.0, 1e20]


def scaled_pair(s, sigma_h_factor=1.0):
    """Means (1, 0.5) and 0 scaled by s, covariances by s^2."""
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    return GaussianPair(s * np.array([1.0, 0.5]), np.zeros(2), s**2 * sigma,
                        s**2 * sigma_h_factor * sigma)


class TestDirectionsAtAnyScale:
    # every tolerance is relative, so the data's units cannot change an answer

    @pytest.mark.parametrize("s", SCALES)
    def test_both_oracles_give_the_unscaled_direction(self, s):
        expected = np.linalg.solve(np.array([[2.0, 0.5], [0.5, 1.0]]), [1.0, 0.5])
        expected /= np.linalg.norm(expected)
        g = scaled_pair(s)
        for oracle in (optimal_auc_direction, youden_direction):
            direction = oracle(g)
            assert np.allclose(direction, expected, rtol=0.0, atol=1e-14), oracle.__name__
            assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("s", SCALES)
    def test_youden_rejects_unequal_covariances(self, s):
        with pytest.raises(ValueError, match="requires equal covariance matrices"):
            youden_direction(scaled_pair(s, sigma_h_factor=2.0))

    @pytest.mark.parametrize("s", SCALES)
    def test_youden_accepts_covariances_equal_up_to_rounding(self, s):
        g = scaled_pair(s, sigma_h_factor=1.0 + 1e-13)
        assert np.allclose(youden_direction(g), optimal_auc_direction(g), atol=1e-14)

    @pytest.mark.parametrize("s", [0.0, *SCALES])
    def test_an_exact_zero_gap_is_degenerate(self, s):
        mean = s * np.array([1.0, 0.5])
        g = GaussianPair(mean, mean.copy(), np.eye(2), np.eye(2))
        with pytest.raises(DegenerateDirectionError, match="AUC-1/2 coin flip"):
            optimal_auc_direction(g)
        with pytest.raises(DegenerateDirectionError, match="admit no optimal direction"):
            youden_direction(g)

    @pytest.mark.parametrize("s", SCALES)
    def test_a_gap_of_rounding_size_is_degenerate(self, s):
        mean = s * np.array([1.0, 0.5])
        g = GaussianPair(mean * (1.0 + 1e-15), mean, s**2 * np.eye(2), s**2 * np.eye(2))
        with pytest.raises(DegenerateDirectionError, match="AUC-1/2 coin flip"):
            optimal_auc_direction(g)

    @pytest.mark.parametrize("s", [1e-170, 1e170, 2.0**-600, 2.0**600])
    def test_both_oracles_hold_where_the_squared_means_leave_the_float_range(self, s):
        # |mu_D|^2 underflows to zero or overflows, yet the direction is (2, 1)/sqrt(5)
        g = GaussianPair(s * np.array([1.0, 0.5]), np.zeros(2), np.eye(2), np.eye(2))
        expected = np.array([2.0, 1.0]) / np.sqrt(5.0)
        for oracle in (optimal_auc_direction, youden_direction):
            assert np.allclose(oracle(g), expected, rtol=0.0, atol=1e-15), oracle.__name__

    @pytest.mark.parametrize("mean, variance", [(1e-150, 1e300), (1e10, 1e-300)])
    def test_a_direction_beyond_the_float_range_is_degenerate(self, mean, variance):
        # (Sigma_D + Sigma_H)^{-1} (mu_D - mu_H) underflows to zero or overflows
        g = GaussianPair(np.array([mean, 0.0]), np.zeros(2), variance * np.eye(2),
                         variance * np.eye(2))
        for oracle in (optimal_auc_direction, youden_direction):
            with pytest.raises(DegenerateDirectionError, match="collapsed to zero or overflowed"):
                oracle(g)

    def test_all_zero_covariances_are_not_positive_definite(self):
        with pytest.raises(ValueError, match="^sigma_d must be positive definite$"):
            GaussianPair(np.ones(2), np.zeros(2), np.zeros((2, 2)), np.eye(2))

    def test_midpoint_threshold_maximizes_the_empirical_gap(self):
        rng = np.random.default_rng(11)
        g = random_pair(rng, equal_cov=True)
        beta = youden_direction(g)
        optimum = float(beta @ (g.mu_d + g.mu_h) / 2.0)
        n = 200_000
        d_scores = rng.multivariate_normal(g.mu_d, g.sigma_d, n) @ beta
        h_scores = rng.multivariate_normal(g.mu_h, g.sigma_h, n) @ beta

        from funcroc import ScoreSample, youden

        _, threshold = youden(ScoreSample(d_scores, h_scores))
        spread = np.sqrt(float(beta @ g.sigma_d @ beta))
        assert abs(threshold - optimum) < 0.05 * max(spread, 1.0)


class TestPooledCorrelationIdentity:
    def test_equal_means_zero_both_sides(self):
        g = random_pair(np.random.default_rng(12), equal_means=True)
        lhs, rhs = pooled_correlation_identity(g, np.ones(g.dim), 0.3)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pi_d", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_identity_holds_to_machine_precision(self, pi_d):
        rng = np.random.default_rng(int(pi_d * 1000))
        g = random_pair(rng)
        for _ in range(10):
            beta = rng.standard_normal(g.dim)
            lhs, rhs = pooled_correlation_identity(g, beta, pi_d)
            assert abs(lhs - rhs) <= 1e-12

    def test_balanced_prevalence_aligns_correlation_and_auc_maxima(self):
        # shared argmax over directions at pi_d = 1/2
        rng = np.random.default_rng(13)
        g = random_pair(rng, equal_cov=True)
        candidates = rng.standard_normal((500, g.dim))
        corr_values = [pooled_correlation_identity(g, beta, 0.5)[0] for beta in candidates]
        auc_values = [auc_of_direction(g, beta) for beta in candidates]
        assert int(np.argmax(corr_values)) == int(np.argmax(auc_values))


class TestEigenbasisOptimalDirection:
    def test_identity_spectrum_returns_the_gap(self):
        direction = eigenbasis_optimal_direction(
            np.array([1.0, -2.0]), np.array([1.0, 1.0]), 0.5
        )
        assert np.allclose(direction, 0.5 * np.array([1.0, -2.0]))

    def test_hand_computed_example(self):
        direction = eigenbasis_optimal_direction(
            np.array([1.0, 1.0]), np.array([2.0, 0.5]), 0.5
        )
        assert np.allclose(direction, 0.5 * np.array([0.5, 2.0]), atol=1e-15)

    def test_zero_eigenvalue_violates_the_range(self):
        with pytest.raises(RangeViolationError):
            eigenbasis_optimal_direction(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5)

    def test_zero_gap_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            eigenbasis_optimal_direction(np.zeros(3), np.ones(3), 0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_beats_random_directions_in_finite_rank_models(self, seed):
        rng = np.random.default_rng(500 + seed)
        k = 6
        eigenvalues = rng.uniform(0.1, 3.0, k)
        gap = rng.standard_normal(k)
        g = GaussianPair(gap, np.zeros(k), np.diag(eigenvalues), np.diag(eigenvalues))
        best = auc_of_direction(g, eigenbasis_optimal_direction(gap, eigenvalues, 0.5))
        for _ in range(1000):
            assert auc_of_direction(g, rng.standard_normal(k)) <= best + 1e-12
