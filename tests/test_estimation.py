import numpy as np
import pytest
import scipy.linalg

from funcroc import (
    CovarianceKernel,
    DegenerateDirectionError,
    DegenerateOperatorError,
    EigenSystem,
    FunctionalSample,
    GridMismatchError,
    InsufficientSampleError,
    InvalidKernelError,
    ProcessSpec,
    choose_dimension,
    combine_covariances,
    eigendecompose,
    make_uniform_grid,
    project_scores,
    sample_covariance,
    sample_gaussian,
    sample_mean,
)
from funcroc.estimation import check_mean_gap, spd_inverse, spd_solve, symmetric_matrix

BROWNIAN_TOP_EIGENVALUE = 4.0 / np.pi**2  # analytic leading variance of min(s, t)


def brownian_sample(n, m=100, seed=0):
    rng = np.random.default_rng(seed)
    return sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(m), n, rng)


class TestSampleMean:
    def test_single_curve_is_its_own_mean(self):
        grid = make_uniform_grid(10)
        values = np.linspace(0, 1, 10)
        s = FunctionalSample(grid, values[None, :])
        assert np.array_equal(sample_mean(s).values, values)

    def test_opposite_curves_average_to_zero(self):
        grid = make_uniform_grid(10)
        f = np.sin(np.pi * grid.points)
        s = FunctionalSample(grid, np.vstack([f, -f]))
        assert np.allclose(sample_mean(s).values, 0.0)

    def test_mean_of_many_centered_paths_is_small(self):
        # CLT: sup of the mean path stays below about 3 sqrt(lambda_1 / n)
        s = brownian_sample(10_000, seed=11)
        assert np.abs(sample_mean(s).values).max() < 0.05


class TestSampleCovariance:
    def test_two_opposite_curves(self):
        grid = make_uniform_grid(8)
        f = np.cos(grid.points)
        s = FunctionalSample(grid, np.vstack([f, -f]))
        assert np.allclose(sample_covariance(s).matrix, np.outer(f, f), atol=1e-14)

    def test_identical_curves_give_zero_matrix(self):
        grid = make_uniform_grid(8)
        f = np.cos(grid.points)
        s = FunctionalSample(grid, np.vstack([f, f, f]))
        assert np.allclose(sample_covariance(s).matrix, 0.0)

    def test_single_curve_is_rejected(self):
        grid = make_uniform_grid(8)
        s = FunctionalSample(grid, np.zeros((1, 8)))
        with pytest.raises(InsufficientSampleError):
            sample_covariance(s)

    def test_recovers_brownian_kernel(self):
        s = brownian_sample(5000, seed=7)
        t = s.grid.points
        estimate = sample_covariance(s).matrix
        assert np.abs(estimate - np.minimum.outer(t, t)).max() < 0.05

    @pytest.mark.parametrize("seed", range(3))
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_uniform_grid(20)
        values = rng.standard_normal((15, 20))
        shifted = values + 5.0 * np.ones(20)
        base = sample_covariance(FunctionalSample(grid, values))
        moved = sample_covariance(FunctionalSample(grid, shifted))
        assert np.abs(base.matrix - moved.matrix).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_scale_equivariance(self, seed):
        rng = np.random.default_rng(50 + seed)
        grid = make_uniform_grid(20)
        values = rng.standard_normal((15, 20))
        c = 2.5
        base = sample_covariance(FunctionalSample(grid, values))
        scaled = sample_covariance(FunctionalSample(grid, c * values))
        assert np.allclose(scaled.matrix, c**2 * base.matrix, atol=1e-12)
        eig_base = eigendecompose(base, 5)
        eig_scaled = eigendecompose(scaled, 5)
        assert np.allclose(eig_scaled.eigenvalues, c**2 * eig_base.eigenvalues, rtol=1e-9)
        overlap = np.abs(
            eig_scaled.eigenfunctions.T
            @ (grid.weights[:, None] * eig_base.eigenfunctions)
        )
        assert np.allclose(np.diag(overlap), 1.0, atol=1e-8)


class TestCombineCovariances:
    def make_kernels(self, m=12):
        grid = make_uniform_grid(m)
        t = grid.points
        a = CovarianceKernel(grid, np.minimum.outer(t, t))
        b = CovarianceKernel(grid, 3.0 * np.minimum.outer(t, t))
        return grid, a, b

    def test_combining_a_kernel_with_itself_is_identity(self):
        _, a, _ = self.make_kernels()
        for mode, kw in (("pooled", {"n_a": 10, "n_b": 20}), ("average", {})):
            combined = combine_covariances(a, a, mode, **kw)
            assert np.allclose(combined.matrix, a.matrix)

    def test_average_of_kernel_and_its_triple(self):
        _, a, b = self.make_kernels()
        combined = combine_covariances(a, b, "average")
        assert np.allclose(combined.matrix, 2.0 * a.matrix)

    def test_pooled_weights_follow_sample_sizes(self):
        _, a, b = self.make_kernels()
        combined = combine_covariances(a, b, "pooled", n_a=30, n_b=250)
        expected = (30 / 280) * a.matrix + (250 / 280) * b.matrix
        assert np.allclose(combined.matrix, expected)

    def test_grid_mismatch_raises(self):
        _, a, _ = self.make_kernels(12)
        _, other, _ = self.make_kernels(13)
        with pytest.raises(GridMismatchError):
            combine_covariances(a, other, "average")

    @pytest.mark.parametrize("mode, sizes, message", [
        ("pooled", {}, "pooled mode requires positive sample sizes n_a and n_b"),
        ("pooled", {"n_a": 0, "n_b": 5}, "pooled mode requires positive sample sizes n_a and n_b"),
        ("pooled", {"n_a": 5, "n_b": -1}, "pooled mode requires positive sample sizes n_a and n_b"),
        ("median", {}, "unknown combination mode: 'median'"),
    ])
    def test_bad_mode_or_sample_sizes_raise(self, mode, sizes, message):
        _, a, b = self.make_kernels()
        with pytest.raises(ValueError, match=f"^{message}$"):
            combine_covariances(a, b, mode, **sizes)

    def test_spectrum_invariance_of_self_combination(self):
        _, a, _ = self.make_kernels()
        eig_a = eigendecompose(a, 12)
        eig_c = eigendecompose(combine_covariances(a, a, "average"), 12)
        assert np.allclose(eig_a.eigenvalues, eig_c.eigenvalues, atol=1e-10)


class TestEigendecompose:
    def test_brownian_kernel_matches_analytic_expansion(self):
        grid = make_uniform_grid(500)
        t = grid.points
        kernel = CovarianceKernel(grid, np.minimum.outer(t, t))
        eig = eigendecompose(kernel, 3)
        assert eig.eigenvalues[0] == pytest.approx(BROWNIAN_TOP_EIGENVALUE, abs=0.002)
        expected = np.sqrt(2.0) * np.sin(np.pi * t / 2)
        assert np.abs(eig.eigenfunctions[:, 0] - expected).max() < 0.01

    def test_rank_one_kernel(self):
        grid = make_uniform_grid(80)
        f = np.sin(2 * np.pi * grid.points) + 0.3
        kernel = CovarianceKernel(grid, np.outer(f, f))
        eig = eigendecompose(kernel, 80)
        f_norm_sq = float(np.sum(grid.weights * f * f))
        assert eig.eigenvalues[0] == pytest.approx(f_norm_sq, rel=1e-10)
        assert np.all(eig.eigenvalues[1:] <= 1e-10)

    def test_finite_rank_kernel_recovers_component_variances(self):
        from funcroc import kernel_matrix

        grid = make_uniform_grid(300)
        lambdas = (2.0, 0.3, 0.05)
        eig = eigendecompose(kernel_matrix(ProcessSpec("finite_rank", lambdas=lambdas), grid), 3)
        # quadrature discretization perturbs the spectrum at O(m^-2)
        assert np.allclose(eig.eigenvalues, lambdas, rtol=1e-4, atol=1e-5)

    def test_eigenfunctions_are_quadrature_orthonormal(self):
        s = brownian_sample(50, m=40, seed=3)
        eig = eigendecompose(sample_covariance(s), 10)
        gram = eig.eigenfunctions.T @ (s.grid.weights[:, None] * eig.eigenfunctions)
        assert np.abs(gram - np.eye(10)).max() < 1e-8

    def test_sign_convention_makes_largest_coordinate_positive(self):
        s = brownian_sample(50, m=40, seed=4)
        eig = eigendecompose(sample_covariance(s), 10)
        for ell in range(10):
            column = eig.eigenfunctions[:, ell]
            assert column[np.argmax(np.abs(column))] > 0

    @pytest.mark.parametrize("count", [1, 7, 40])
    def test_sign_fix_matches_the_column_loop(self, count):
        s = brownian_sample(50, m=40, seed=6)
        kernel = sample_covariance(s)
        # reference: the symmetrized eigh, then one sign decision per column
        sqrt_w = np.sqrt(s.grid.weights)
        symmetrized = sqrt_w[:, None] * kernel.matrix * sqrt_w[None, :]
        values, vectors = scipy.linalg.eigh((symmetrized + symmetrized.T) / 2.0, driver="evd")
        functions = vectors[:, np.argsort(values)[::-1]] / sqrt_w[:, None]
        for ell in range(count):
            column = functions[:, ell]
            if column[np.argmax(np.abs(column))] < 0:
                functions[:, ell] = -column
        eig = eigendecompose(kernel, count)
        assert np.array_equal(eig.eigenfunctions, functions[:, :count])
        assert eig.eigenfunctions.flags["C_CONTIGUOUS"]

    def test_nonsymmetric_kernel_is_rejected(self):
        grid = make_uniform_grid(5)
        matrix = np.eye(5)
        matrix[0, 1] = 0.5
        with pytest.raises(InvalidKernelError):
            CovarianceKernel(grid, matrix)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_nonsymmetric_kernel_is_rejected_at_any_scale(self, scale):
        # the tolerance is relative to the largest entry, so the units cannot hide an asymmetry
        matrix = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidKernelError, match="^kernel matrix must be symmetric$"):
            CovarianceKernel(make_uniform_grid(2), matrix)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_rounding_asymmetry_is_accepted_at_any_scale(self, scale):
        matrix = scale * np.array([[1.0, 0.5], [0.5 * (1.0 + 1e-12), 1.0]])
        assert np.array_equal(CovarianceKernel(make_uniform_grid(2), matrix).matrix, matrix)

    def test_all_zero_kernel_is_accepted(self):
        kernel = CovarianceKernel(make_uniform_grid(3), np.zeros((3, 3)))
        assert not kernel.matrix.any()
        assert np.array_equal(symmetric_matrix(np.zeros((2, 2)), "zeros"), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_is_rejected(self, bad):
        matrix = np.eye(5)
        matrix[2, 2] = bad
        with pytest.raises(ValueError, match="^kernel matrix must be finite$"):
            CovarianceKernel(make_uniform_grid(5), matrix)

    @pytest.mark.parametrize("shape", [(4, 4), (6, 6), (5, 4), (5,), (5, 5, 1)])
    def test_a_matrix_that_does_not_match_the_grid_is_rejected(self, shape):
        with pytest.raises(ValueError, match="^kernel matrix must be square and match the grid$"):
            CovarianceKernel(make_uniform_grid(5), np.zeros(shape))

    def test_count_must_fit_grid(self):
        grid = make_uniform_grid(5)
        kernel = CovarianceKernel(grid, np.eye(5))
        with pytest.raises(ValueError):
            eigendecompose(kernel, 6)

    def test_full_reconstruction(self):
        s = brownian_sample(200, m=30, seed=5)
        kernel = sample_covariance(s)
        eig = eigendecompose(kernel, 30)
        rebuilt = (eig.eigenfunctions * eig.eigenvalues) @ eig.eigenfunctions.T
        scale = np.abs(kernel.matrix).max()
        assert np.abs(rebuilt - kernel.matrix).max() < 1e-6 * scale


class TestSpdInverse:
    def test_matches_the_general_inverse(self):
        a = np.random.default_rng(4).standard_normal((6, 6))
        matrix = a @ a.T + 6.0 * np.eye(6)
        inverse = spd_inverse(matrix, ValueError("unused"))
        assert np.allclose(inverse @ matrix, np.eye(6), atol=1e-12)
        assert np.allclose(inverse, np.linalg.inv(matrix), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_the_callers_error(self, bad):
        matrix = np.eye(3)
        matrix[1, 1] = bad
        with pytest.raises(InsufficientSampleError, match="^caller$"):
            spd_inverse(matrix, InsufficientSampleError("caller"))

    def test_not_positive_definite_raises_the_callers_error(self):
        with pytest.raises(InsufficientSampleError, match="^caller$"):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]), InsufficientSampleError("caller"))

    def test_overflowing_inverse_raises_the_callers_error(self):
        # positive definite with a subnormal spectrum: the inverse is beyond the float range
        with np.errstate(over="ignore"):
            with pytest.raises(InsufficientSampleError, match="^caller$"):
                spd_inverse(np.diag([1e-320, 1.0]), InsufficientSampleError("caller"))


class TestSpdSolve:
    def test_is_the_two_solves_of_the_cholesky_factor(self):
        a = np.random.default_rng(5).standard_normal((6, 6))
        matrix = a @ a.T + 6.0 * np.eye(6)
        rhs = np.arange(1.0, 7.0)
        factor = np.linalg.cholesky(matrix)
        expected = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
        assert np.array_equal(spd_solve(matrix, rhs, ValueError("unused")), expected)
        assert np.allclose(matrix @ expected, rhs, rtol=1e-12)

    def test_not_positive_definite_raises_the_callers_error(self):
        with pytest.raises(InsufficientSampleError, match="^caller$") as raised:
            spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2),
                      InsufficientSampleError("caller"))
        assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)


class TestCheckMeanGap:
    @pytest.mark.parametrize("scale", [1e-200, 1e-20, 1.0, 1e20, 1e200])
    def test_the_rule_is_relative_to_the_larger_mean(self, scale):
        with pytest.raises(DegenerateDirectionError, match="^caller$"):
            check_mean_gap(1e-14 * scale, (scale, 0.5 * scale), "caller")
        check_mean_gap(1e-12 * scale, (0.5 * scale, scale), "caller")

    def test_an_exact_zero_gap_always_coincides(self):
        for norms in ((0.0, 0.0), (1.0, 1.0), (1e-300, 0.0)):
            with pytest.raises(DegenerateDirectionError, match="^caller$"):
                check_mean_gap(0.0, norms, "caller")


def copied_basis(grid, eigenvalues, functions, total_variance):
    """An EigenSystem over a given eigenfunction matrix; the map-back copies its columns."""
    return EigenSystem(grid, eigenvalues, total_variance, lambda k: functions[:, :k].copy())


class TestEigenSystem:
    @staticmethod
    def parts(m=4, count=2):
        return dict(grid=make_uniform_grid(m), eigenvalues=np.array([1.0, 0.5]),
                    functions=np.eye(m)[:, :count], total_variance=2.0)

    def test_finite_parts_are_accepted(self):
        system = copied_basis(**self.parts())
        assert system.count == 2
        assert np.array_equal(system.eigenfunctions, np.eye(4)[:, :2])
        assert copied_basis(**{**self.parts(), "eigenvalues": [1.0, 0.5]}).count == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["eigenvalues", "total_variance"])
    def test_non_finite_parts_are_rejected(self, name, bad):
        parts = self.parts()
        if name == "total_variance":
            parts[name] = bad
        else:
            parts[name] = parts[name].copy()
            parts[name][-1, ...] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            copied_basis(**parts)

    def test_eigenvalues_must_be_a_vector(self):
        with pytest.raises(ValueError, match="^eigenvalues must be one-dimensional$"):
            copied_basis(**{**self.parts(), "eigenvalues": np.array([[1.0, 0.5]])})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_eigenfunction_is_rejected_on_the_read_that_maps_it(self, bad):
        parts = self.parts()
        parts["functions"][-1, 1] = bad
        system = copied_basis(**parts)
        assert np.array_equal(system.leading(1), np.eye(4)[:, :1])
        for _ in range(2):  # a failed read keeps nothing
            with pytest.raises(ValueError, match="^eigenfunctions must be finite$"):
                system.leading(2)
        with pytest.raises(ValueError, match="^eigenfunctions must be finite$"):
            system.eigenfunctions

    @pytest.mark.parametrize("map_back", [
        lambda k: np.eye(4)[:, :k + 1],
        lambda k: np.eye(5)[:, :k],
        lambda k: np.ones(4),
    ], ids=["extra-column", "extra-row", "vector"])
    def test_a_misshapen_map_back_is_rejected(self, map_back):
        system = EigenSystem(make_uniform_grid(4), np.array([1.0, 0.5]), 2.0, map_back)
        with pytest.raises(ValueError, match="^eigenfunctions must be an m x k matrix$"):
            system.leading(1)

    def test_mapped_columns_are_sign_fixed_and_the_widest_set_is_kept(self):
        functions = -np.eye(4)[:, :2]
        widths = []

        def map_back(k):
            widths.append(k)
            return functions[:, :k].copy()

        system = EigenSystem(make_uniform_grid(4), np.array([1.0, 0.5]), 2.0, map_back)
        assert np.array_equal(system.leading(1), np.eye(4)[:, :1])
        assert np.array_equal(system.leading(2), np.eye(4)[:, :2])
        assert np.array_equal(system.leading(1), np.eye(4)[:, :1])
        assert np.array_equal(system.eigenfunctions, np.eye(4)[:, :2])
        assert widths == [1, 2]

    def test_a_map_back_view_leaves_the_callers_matrix_unchanged(self):
        functions = -np.eye(4)[:, :2]
        system = EigenSystem(make_uniform_grid(4), np.array([1.0, 0.5]), 2.0,
                             lambda k: functions[:, :k])
        assert np.array_equal(system.leading(2), np.eye(4)[:, :2])
        assert np.array_equal(functions, -np.eye(4)[:, :2])

    @pytest.mark.parametrize("k", [0, 3])
    def test_leading_rejects_a_count_outside_the_basis(self, k):
        with pytest.raises(ValueError, match="^k must lie between 1 and the basis count$"):
            copied_basis(**self.parts()).leading(k)


class TestChooseDimension:
    def make_system(self, eigenvalues):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        grid = make_uniform_grid(max(len(eigenvalues), 2))
        functions = np.eye(len(grid))[:, : len(eigenvalues)]
        return copied_basis(grid, eigenvalues, functions, float(eigenvalues.sum()))

    def test_dominant_first_eigenvalue(self):
        assert choose_dimension(self.make_system([1.0, 0.0, 0.0]), 0.95) == 1

    def test_cumulative_fraction_boundary(self):
        system = self.make_system([0.5, 0.3, 0.15, 0.05])
        assert choose_dimension(system, 0.95) == 3

    def test_fraction_one_needs_everything(self):
        system = self.make_system([0.5, 0.3, 0.15, 0.05])
        assert choose_dimension(system, 1.0) == 4

    def test_all_zero_spectrum_raises(self):
        with pytest.raises(DegenerateOperatorError):
            choose_dimension(self.make_system([0.0, 0.0]), 0.9)

    def test_invalid_fraction_raises(self):
        system = self.make_system([1.0, 0.5])
        for fraction in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                choose_dimension(system, fraction)

    def test_truncated_system_cannot_attain_fraction(self):
        system = copied_basis(make_uniform_grid(4), np.array([0.5]), np.eye(4)[:, :1], 1.0)
        with pytest.raises(ValueError):
            choose_dimension(system, 0.95)


class TestProjectScores:
    def test_projection_of_basis_elements(self):
        s = brownian_sample(30, m=40, seed=6)
        eig = eigendecompose(sample_covariance(s), 5)
        grid = s.grid
        first = FunctionalSample(grid, eig.eigenfunctions[:, 0][None, :])
        scores = project_scores(first, eig, 5)
        assert np.allclose(scores[0], [1, 0, 0, 0, 0], atol=1e-8)

    def test_projection_is_linear(self):
        s = brownian_sample(30, m=40, seed=6)
        eig = eigendecompose(sample_covariance(s), 5)
        combo = 2.0 * eig.eigenfunctions[:, 0] + 3.0 * eig.eigenfunctions[:, 1]
        sample = FunctionalSample(s.grid, combo[None, :])
        scores = project_scores(sample, eig, 5)
        assert np.allclose(scores[0], [2, 3, 0, 0, 0], atol=1e-8)

    def test_score_variances_track_eigenvalues(self):
        n = 4000
        s = brownian_sample(n, m=100, seed=8)
        eig = eigendecompose(sample_covariance(s), 3)
        scores = project_scores(s, eig, 3)
        variances = scores.var(axis=0)
        for ell in range(3):
            lam = eig.eigenvalues[ell]
            assert abs(variances[ell] - lam) <= 3.0 * lam * np.sqrt(2.0 / n) + 1e-12

    def test_k_larger_than_basis_raises(self):
        s = brownian_sample(10, m=20, seed=9)
        eig = eigendecompose(sample_covariance(s), 4)
        with pytest.raises(ValueError):
            project_scores(s, eig, 5)

    def test_grid_mismatch_raises(self):
        s = brownian_sample(10, m=20, seed=9)
        eig = eigendecompose(sample_covariance(s), 4)
        other = brownian_sample(10, m=21, seed=9)
        with pytest.raises(GridMismatchError):
            project_scores(other, eig, 2)
