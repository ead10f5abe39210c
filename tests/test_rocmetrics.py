import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import ndtr, ndtri

from funcroc import (
    Curve,
    FunctionalSample,
    Group,
    IntegralIndex,
    LinearIndex,
    MaxIndex,
    ScoreSample,
    auc,
    make_uniform_grid,
    roc_curve,
    score_sample,
    youden,
)
from reference import ecdf, equantile


def brute_force_auc(diseased, healthy):
    """Independent oracle: the literal double-sum proportion."""
    hits = 0
    for y_d in diseased:
        for y_h in healthy:
            if y_d > y_h:
                hits += 1
    return hits / (len(diseased) * len(healthy))


class TestEcdf:
    def test_interior_value(self):
        assert ecdf([1, 2, 3], 2) == pytest.approx(2 / 3)

    def test_below_minimum(self):
        assert ecdf([1, 2, 3], 0.5) == 0.0

    def test_at_maximum(self):
        assert ecdf([1, 2, 3], 3) == 1.0

    def test_vectorized_evaluation(self):
        values = ecdf([1, 2, 3], np.array([0.5, 2.0, 3.0]))
        assert np.allclose(values, [0.0, 2 / 3, 1.0])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ecdf([], 1.0)

    @pytest.mark.parametrize(
        "sample, t, which",
        [([np.nan, 1.0, 2.0], 1.5, "sample"), ([0.0, 1.0], np.nan, "t"),
         ([0.0, 1.0], [0.5, np.inf], "t")],
    )
    def test_non_finite_input_rejected(self, sample, t, which):
        with pytest.raises(ValueError, match=f"^{which} must be finite$"):
            ecdf(sample, t)


class TestEquantile:
    def test_median_of_four(self):
        assert equantile([1, 2, 3, 4], 0.5) == 2

    def test_p_one_is_maximum(self):
        assert equantile([5, 1, 9, 3], 1.0) == 9

    def test_third_quartile(self):
        assert equantile([10, 20, 30, 40], 0.75) == 30

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.1])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError):
            equantile([1, 2], p)

    @pytest.mark.parametrize("sample", [[np.nan, 1.0, 2.0], [1.0, np.inf]])
    def test_non_finite_sample_rejected(self, sample):
        with pytest.raises(ValueError, match="^sample must be finite$"):
            equantile(sample, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_is_generalized_inverse_of_ecdf(self, seed):
        rng = np.random.default_rng(seed)
        sample = rng.standard_normal(37)
        for p in rng.uniform(0.01, 1.0, size=20):
            q = equantile(sample, p)
            assert ecdf(sample, q) >= p - 1e-12
            below = sample[sample < q]
            if below.size:
                assert ecdf(sample, below.max()) < p


class TestAuc:
    def test_perfect_separation(self):
        assert auc(ScoreSample([1, 2, 3], [0])) == 1.0

    def test_interleaved(self):
        assert auc(ScoreSample([2], [1, 3])) == 0.5

    def test_ties_count_zero(self):
        # oracle double sum: no diseased score strictly exceeds a healthy one
        s = ScoreSample([1, 2], [2, 3])
        assert brute_force_auc([1, 2], [2, 3]) == 0.0
        assert auc(s) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_random_samples(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 8, size=rng.integers(1, 30)).astype(float)
        h = rng.integers(0, 8, size=rng.integers(1, 30)).astype(float)
        assert auc(ScoreSample(d, h)) == brute_force_auc(d, h)

    @pytest.mark.parametrize("seed", range(5))
    def test_group_swap_complement_without_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        scores = rng.permutation(np.arange(40, dtype=float))
        s = ScoreSample(scores[:17], scores[17:])
        assert auc(s) + auc(ScoreSample(s.healthy, s.diseased)) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_group_swap_with_ties_sums_below_one(self, seed):
        rng = np.random.default_rng(200 + seed)
        d = rng.integers(0, 4, size=12).astype(float)
        h = rng.integers(0, 4, size=9).astype(float)
        s = ScoreSample(d, h)
        assert auc(s) + auc(ScoreSample(s.healthy, s.diseased)) <= 1.0 + 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_group_swap_sums_to_one_minus_the_tie_share(self, seed):
        rng = np.random.default_rng(600 + seed)
        d = rng.integers(0, 4, size=rng.integers(1, 25)).astype(float)
        h = rng.integers(0, 4, size=rng.integers(1, 25)).astype(float)
        ties = sum(y_d == y_h for y_d in d for y_h in h) / (d.size * h.size)
        s = ScoreSample(d, h)
        swapped = ScoreSample(s.healthy, s.diseased)
        assert auc(s) + auc(swapped) == pytest.approx(1.0 - ties, abs=1e-12)


class TestYouden:
    def test_identical_samples_have_near_zero_value(self):
        sample = np.arange(10.0)
        value, _ = youden(ScoreSample(sample, sample))
        assert abs(value) <= 1 / 10

    def test_perfect_separation_reaches_one(self):
        value, threshold = youden(ScoreSample([5.0, 6.0], [1.0, 2.0]))
        assert value == 1.0
        assert threshold == 2.0

    def test_equal_variance_gaussians(self):
        # analytic midpoint rule: best threshold 1, value 2 Phi(1) - 1
        rng = np.random.default_rng(31)
        n = 100_000
        s = ScoreSample(rng.normal(2.0, 1.0, n), rng.normal(0.0, 1.0, n))
        value, threshold = youden(s)
        assert value == pytest.approx(2 * ndtr(1.0) - 1.0, abs=0.01)
        assert threshold == pytest.approx(1.0, abs=0.1)

    def test_smallest_achieving_threshold_is_returned(self):
        # thresholds 2 and 3 both achieve the maximum gap
        s = ScoreSample([4.0, 5.0], [1.0, 2.0, 3.0])
        value, threshold = youden(s)
        assert value == 1.0
        assert threshold == 3.0
        tied = ScoreSample([4.0, 5.0], [1.0, 1.0, 2.0])
        assert youden(tied)[1] == 2.0

    @pytest.mark.parametrize("seed", range(8))
    def test_value_is_supremum_of_plugin_gap(self, seed):
        # evaluate q - F_D(F_H^{-1}(q)) at every q = j / n_h, the closure of
        # the values the plug-in form attains on 0 < p < 1
        rng = np.random.default_rng(seed)
        d = rng.normal(0.4, 1.0, size=rng.integers(3, 40))
        h = rng.normal(0.0, 1.3, size=rng.integers(3, 40))
        value, _ = youden(ScoreSample(d, h))
        n_h = h.size
        gaps = [
            j / n_h - ecdf(d, equantile(h, j / n_h)) for j in range(1, n_h + 1)
        ]
        assert value == pytest.approx(max(gaps), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_all_scores_candidate_rule(self, seed):
        # the reference tests every distinct score of either group; youden
        # reads the healthy scores only and must agree to the bit
        rng = np.random.default_rng(900 + seed)
        for _ in range(100):
            n_d, n_h = rng.integers(1, 41, size=2)
            if rng.random() < 0.5:  # tie-heavy integer scores
                d, h = rng.integers(0, 5, n_d) * 1.0, rng.integers(0, 5, n_h) * 1.0
            else:
                d, h = rng.normal(0.3, 1.0, n_d), rng.normal(0.0, 1.0, n_h)
            candidates = np.unique(np.concatenate([d, h]))
            gaps = ecdf(h, candidates) - ecdf(d, candidates)
            best = int(np.argmax(gaps))
            assert youden(ScoreSample(d, h)) == (float(gaps[best]), float(candidates[best]))

    @pytest.mark.parametrize("seed", range(8))
    def test_value_within_unit_interval(self, seed):
        rng = np.random.default_rng(300 + seed)
        s = ScoreSample(rng.standard_normal(25), rng.standard_normal(30))
        value, _ = youden(s)
        assert -1.0 <= value <= 1.0


class TestRocCurve:
    def test_default_grid_has_101_points_with_pinned_endpoints(self):
        rng = np.random.default_rng(0)
        s = ScoreSample(rng.standard_normal(50), rng.standard_normal(50))
        summary = roc_curve(s)
        assert summary.p_grid.size == 101
        assert summary.roc_values[0] == 0.0
        assert summary.roc_values[-1] == 1.0

    def test_identical_samples_give_the_diagonal(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(200)
        s = ScoreSample(scores, scores)
        summary = roc_curve(s)
        assert np.abs(summary.roc_values - summary.p_grid).max() <= 1 / 200 + 1e-12

    def test_perfect_separation_is_one_on_the_interior(self):
        s = ScoreSample([10.0, 11.0], [1.0, 2.0])
        summary = roc_curve(s)
        assert np.all(summary.roc_values[1:] == 1.0)

    def test_values_are_nondecreasing(self):
        rng = np.random.default_rng(6)
        s = ScoreSample(rng.standard_normal(33), rng.standard_normal(44))
        summary = roc_curve(s)
        assert np.all(np.diff(summary.roc_values) >= 0)

    def test_matches_binormal_closed_form(self):
        # ROC(p) = Phi(1 + Phi^{-1}(p)) for N(1,1) vs N(0,1)
        rng = np.random.default_rng(12)
        n = 100_000
        s = ScoreSample(rng.normal(1.0, 1.0, n), rng.normal(0.0, 1.0, n))
        summary = roc_curve(s)
        interior = slice(1, -1)
        p = summary.p_grid[interior]
        exact = ndtr(1.0 + ndtri(p))
        assert np.abs(summary.roc_values[interior] - exact).max() <= 0.01

    def test_auc_equals_trapezoid_area_of_fine_curve(self):
        rng = np.random.default_rng(21)
        s = ScoreSample(rng.normal(0.8, 1, 150), rng.normal(0, 1, 170))
        summary = roc_curve(s, np.linspace(0, 1, 2001))
        area = trapezoid(summary.roc_values, summary.p_grid)
        assert abs(area - summary.auc) <= 2 / 150

    @pytest.mark.parametrize("size", [2, 11, 101])
    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_plug_in_formula_pointwise(self, seed, kind, size):
        # tie-heavy integer scores; the uniform grids make n p land on integers
        rng = np.random.default_rng(500 + seed)
        d = rng.integers(0, 6, size=rng.integers(1, 40)).astype(float)
        h = rng.integers(0, 6, size=rng.integers(1, 40)).astype(float)
        if kind == "uniform":
            p_grid = np.linspace(0.0, 1.0, size)
        else:
            p_grid = np.unique(rng.uniform(0.0, 1.0, size))
        summary = roc_curve(ScoreSample(d, h), p_grid)
        for p, value in zip(p_grid, summary.roc_values):
            if p == 0.0 or p == 1.0:
                assert value == p
            else:
                assert value == 1.0 - ecdf(d, equantile(h, 1.0 - p))

    def test_one_call_sorts_each_group_once(self, monkeypatch):
        sorted_sizes = []
        original = np.sort

        def counting(values, *args, **kwargs):
            sorted_sizes.append(np.size(values))
            return original(values, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting)
        rng = np.random.default_rng(7)
        scores = ScoreSample(rng.standard_normal(5), rng.standard_normal(8))
        roc_curve(scores)
        assert sorted(sorted_sizes) == [5, 8]

    def test_rejects_bad_grid(self):
        s = ScoreSample([1.0], [0.0])
        with pytest.raises(ValueError):
            roc_curve(s, np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            roc_curve(s, np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            roc_curve(s, np.array([0.2, np.nan, 0.5]))


class TestMonotoneInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_strictly_increasing_transforms_change_nothing(self, seed):
        rng = np.random.default_rng(400 + seed)
        s = ScoreSample(rng.standard_normal(40), rng.standard_normal(35))
        transformed = ScoreSample(
            np.exp(s.diseased) + s.diseased**3, np.exp(s.healthy) + s.healthy**3
        )
        base, mapped = roc_curve(s), roc_curve(transformed)
        assert np.array_equal(base.roc_values, mapped.roc_values)
        assert base.auc == mapped.auc
        assert base.youden == mapped.youden


class TestScoreSample:
    def make_samples(self):
        grid = make_uniform_grid(6)
        d = FunctionalSample(grid, [[0.1, 0.5, 0.2, 0.0, 0.1, 0.3]], Group.DISEASED)
        h = FunctionalSample(grid, np.ones((2, 6)), Group.HEALTHY)
        return grid, d, h

    def test_max_index_scores(self):
        _, d, h = self.make_samples()
        s = score_sample(MaxIndex(), d, h)
        assert s.diseased[0] == 0.5
        assert np.all(s.healthy == 1.0)

    def test_integral_of_constant_curves(self):
        grid, _, h = self.make_samples()
        s = score_sample(IntegralIndex(), h, h)
        assert np.allclose(s.healthy, grid.span)

    def test_orthogonal_direction_gives_zero_scores(self):
        grid = make_uniform_grid(8)
        beta = np.zeros(8)
        beta[0] = 1.0
        curves = np.zeros((3, 8))
        curves[:, 1:] = np.arange(21, dtype=float).reshape(3, 7)
        sample = FunctionalSample(grid, curves, Group.DISEASED)
        idx = LinearIndex(Curve(grid, beta))
        s = score_sample(idx, sample, sample)
        assert np.all(s.diseased == 0.0)
