import warnings

import numpy as np
import pytest

import funcroc
from funcroc import (
    Curve,
    FunctionalSample,
    Grid,
    GridMismatchError,
    inner_product,
    make_uniform_grid,
    norm,
)


def curve_on(grid, fn):
    return Curve(grid, fn(grid.points))


class TestMakeUniformGrid:
    def test_points_exclude_zero_and_end_at_one(self):
        grid = make_uniform_grid(100)
        assert np.allclose(grid.points, np.arange(1, 101) / 100)
        assert grid.points[0] == pytest.approx(0.01)
        assert grid.points[-1] == 1.0

    def test_two_points(self):
        grid = make_uniform_grid(2)
        assert np.allclose(grid.points, [0.5, 1.0])
        assert np.allclose(grid.weights, [0.25, 0.25])

    def test_weight_sum_equals_covered_interval(self):
        grid = make_uniform_grid(4)
        assert grid.weights.sum() == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_rejects_too_few_points(self, m):
        with pytest.raises(ValueError):
            make_uniform_grid(m)


class TestGridValidation:
    def test_rejects_decreasing_points(self):
        with pytest.raises(ValueError):
            Grid([0.1, 0.3, 0.2])

    @pytest.mark.parametrize("points", [[], [0.5], [[0.2, 0.4], [0.6, 0.8]]])
    def test_rejects_fewer_than_two_points_or_a_matrix(self, points):
        with pytest.raises(ValueError, match="grid needs at least two points"):
            Grid(points)

    def test_rejects_points_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Grid([0.5, 1.5])

    def test_arrays_are_immutable(self):
        grid = make_uniform_grid(5)
        with pytest.raises(ValueError):
            grid.points[0] = 0.0


class TestTrapezoidWeights:
    def test_irregular_grid_weighs_half_the_neighboring_gaps(self):
        # gaps 0.2, 0.05 and 0.55
        grid = Grid([0.1, 0.3, 0.35, 0.9])
        assert grid.weights == pytest.approx([0.1, 0.125, 0.3, 0.275], abs=1e-15)
        assert grid.weights.sum() == pytest.approx(0.8, abs=1e-15)

    def test_weights_are_not_an_argument(self):
        with pytest.raises(TypeError):
            Grid([0.5, 1.0], [0.25, 0.25])
        with pytest.raises(TypeError):
            Grid(points=[0.5, 1.0], weights=[0.25, 0.25])

    def test_weights_are_read_only(self):
        grid = Grid([0.1, 0.3, 0.35, 0.9])
        with pytest.raises(ValueError):
            grid.weights[0] = 0.5


class TestCurveAndSample:
    def test_curve_length_must_match_grid(self):
        grid = make_uniform_grid(4)
        with pytest.raises(ValueError):
            Curve(grid, np.zeros(3))

    def test_curve_rejects_nan(self):
        grid = make_uniform_grid(4)
        with pytest.raises(ValueError):
            Curve(grid, [0.0, np.nan, 1.0, 2.0])

    def test_sample_shape_checks(self):
        grid = make_uniform_grid(4)
        with pytest.raises(ValueError):
            FunctionalSample(grid, np.zeros((0, 4)))
        with pytest.raises(ValueError):
            FunctionalSample(grid, np.zeros((2, 3)))

    def test_sample_exposes_rows_as_curves(self):
        grid = make_uniform_grid(3)
        sample = FunctionalSample(grid, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert sample.n == 2
        assert np.allclose(sample.values[1], [4.0, 5.0, 6.0])


class TestIdentityEquality:
    """Array-holding value objects compare and hash by identity; ``compatible_with``
    is the value comparison of grids."""

    def test_grids_compare_by_identity(self):
        points = np.array([0.1, 0.5, 1.0])
        grid = Grid(points)
        assert (Grid(points) == Grid(points)) is False
        assert grid == grid
        assert hash(grid) == hash(grid)
        assert Grid(points).compatible_with(Grid(points))

    def test_equal_curves_are_distinct_set_members(self):
        grid = make_uniform_grid(3)
        values = np.array([1.0, 2.0, 3.0])
        assert len({Curve(grid, values), Curve(grid, values)}) == 2
        sample = FunctionalSample(grid, values[None, :])
        assert {sample: 1}[sample] == 1

    @pytest.mark.parametrize("name", [
        "Grid", "Curve", "FunctionalSample", "CovarianceKernel", "EigenSystem", "LinearIndex",
        "QuadraticIndex", "ScoreSample", "RocSummary", "RocRows", "GaussianPair",
    ])
    def test_every_array_holding_dataclass_uses_identity(self, name):
        cls = getattr(funcroc, name)
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__


class TestInnerProduct:
    def test_constant_functions_integrate_to_interval_length(self):
        grid = make_uniform_grid(1000)
        one = curve_on(grid, lambda t: np.ones_like(t))
        assert inner_product(one, one) == pytest.approx(0.999, abs=1e-12)

    def test_first_mode_has_unit_norm(self):
        # analytic: integral of 2 sin^2(pi t / 2) over [0, 1] equals 1
        grid = make_uniform_grid(1000)
        f = curve_on(grid, lambda t: np.sqrt(2.0) * np.sin(np.pi * t / 2))
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-3)
        assert norm(f) == pytest.approx(1.0, abs=1e-3)

    def test_distinct_modes_are_orthogonal(self):
        grid = make_uniform_grid(1000)
        f = curve_on(grid, lambda t: np.sqrt(2.0) * np.sin(np.pi * t / 2))
        g = curve_on(grid, lambda t: np.sqrt(2.0) * np.sin(3 * np.pi * t / 2))
        assert inner_product(f, g) == pytest.approx(0.0, abs=1e-3)

    def test_grid_mismatch_is_rejected(self):
        f = curve_on(make_uniform_grid(10), np.sin)
        g = curve_on(make_uniform_grid(11), np.sin)
        with pytest.raises(GridMismatchError):
            inner_product(f, g)

    def test_value_equal_grids_are_compatible(self):
        f = curve_on(make_uniform_grid(10), np.sin)
        g = curve_on(make_uniform_grid(10), np.cos)
        assert inner_product(f, g) == pytest.approx(
            float(np.sum(f.grid.weights * f.values * g.values))
        )


class TestNorm:
    def test_zero_curve_has_zero_norm(self):
        grid = make_uniform_grid(50)
        assert norm(Curve(grid, np.zeros(50))) == 0.0

    def test_constant_curve_norm(self):
        grid = make_uniform_grid(400)
        two = Curve(grid, np.full(400, 2.0))
        span = grid.points[-1] - grid.points[0]
        assert norm(two) == pytest.approx(2.0 * np.sqrt(span), abs=1e-12)

    def test_overflowing_squares_give_inf_without_a_warning(self):
        huge = Curve(make_uniform_grid(5), np.full(5, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(huge) == np.inf


class TestAlgebraicProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_uniform_grid(60)
        f, g, h = (Curve(grid, rng.standard_normal(60)) for _ in range(3))
        a, b = rng.standard_normal(2)
        combined = Curve(grid, a * f.values + b * g.values)
        expected = a * inner_product(f, h) + b * inner_product(g, h)
        assert inner_product(combined, h) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_is_exact(self, seed):
        rng = np.random.default_rng(100 + seed)
        grid = make_uniform_grid(40)
        f = Curve(grid, rng.standard_normal(40))
        g = Curve(grid, rng.standard_normal(40))
        assert inner_product(f, g) == inner_product(g, f)

    @pytest.mark.parametrize("seed", range(5))
    def test_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(200 + seed)
        grid = make_uniform_grid(40)
        f = Curve(grid, rng.standard_normal(40))
        g = Curve(grid, rng.standard_normal(40))
        assert abs(inner_product(f, g)) <= norm(f) * norm(g) + 1e-12

    def test_quadratic_integrand_converges_at_second_order(self):
        errors = []
        for m in (100, 200):
            grid = make_uniform_grid(m)
            f = curve_on(grid, lambda t: t * t)
            one = curve_on(grid, np.ones_like)
            exact = (1.0 - grid.points[0] ** 3) / 3.0
            errors.append(abs(inner_product(f, one) - exact))
        ratio = errors[0] / errors[1]
        assert 3.5 < ratio < 4.5
