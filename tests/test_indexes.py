import threading

import numpy as np
import pytest

from funcroc import (
    INDEX_NAMES,
    Curve,
    DegenerateDirectionError,
    DegenerateOperatorError,
    FitContext,
    FunctionalSample,
    GridMismatchError,
    InsufficientSampleError,
    LinearIndex,
    MaxIndex,
    MinIndex,
    ProcessSpec,
    QuadraticIndex,
    RunConfig,
    ScenarioSpec,
    SingularSystemError,
    analyze,
    auc,
    choose_dimension,
    combine_covariances,
    eigendecompose,
    estimation,
    fit_mean_difference,
    fit_optimal_linear,
    fit_quadratic,
    generate_scenario,
    index_scores,
    indexes,
    inner_product,
    make_uniform_grid,
    norm,
    pooled_eigensystem,
    project_scores,
    sample_covariance,
    sample_gaussian,
    score_sample,
    second_difference_penalty,
)
from reference import pooled_eigenfunctions, quadratic_population, quadratic_scores


def fourier_sample(rng, n, grid, mean_coefs, coef_sd):
    """Curves with independent normal coordinates in an orthonormal basis."""
    k = len(mean_coefs)
    basis = np.column_stack(
        [np.sqrt(2.0) * np.sin((2 * ell - 1) * np.pi * grid.points / 2) for ell in range(1, k + 1)]
    )
    coefs = mean_coefs + rng.standard_normal((n, k)) * coef_sd
    return FunctionalSample(grid, coefs @ basis.T), basis


def pooled_kernel(d, h):
    """The sample-size weighted pool of the two group covariance kernels."""
    return combine_covariances(
        sample_covariance(d), sample_covariance(h), "pooled", n_a=d.n, n_b=h.n
    )


def score_curve(idx, x):
    """``index_scores`` of the one-curve sample holding ``x``."""
    return float(index_scores(idx, FunctionalSample(x.grid, x.values[None, :]))[0])


class TestApplyIndex:
    def test_max_and_min(self):
        grid = make_uniform_grid(3)
        x = Curve(grid, [0.1, 0.5, 0.2])
        assert score_curve(MaxIndex(), x) == 0.5
        assert score_curve(MinIndex(), x) == pytest.approx(0.1)

    def test_integral_is_weighted_sum(self):
        grid = make_uniform_grid(100)
        x = Curve(grid, np.ones(100))
        integral = LinearIndex(Curve(grid, np.ones(len(grid))))
        assert score_curve(integral, x) == pytest.approx(grid.points[-1] - grid.points[0])

    def test_self_projection_returns_norm(self):
        rng = np.random.default_rng(0)
        grid = make_uniform_grid(30)
        x = Curve(grid, rng.standard_normal(30))
        beta = Curve(grid, x.values / norm(x))
        assert score_curve(LinearIndex(beta), x) == pytest.approx(norm(x))

    def test_a_direction_is_nonzero_by_its_values_not_its_norm(self):
        grid = make_uniform_grid(20)
        # the squares of 1e-200 underflow, so the quadrature norm is 0
        tiny = LinearIndex(Curve(grid, np.full(20, 1e-200)))
        assert norm(tiny.beta) == 0.0
        score = score_curve(tiny, Curve(grid, np.ones(20)))
        assert score == pytest.approx(1e-200 * grid.weights.sum())
        with pytest.raises(ValueError, match="^beta must be nonzero$"):
            LinearIndex(Curve(grid, np.zeros(20)))

    @pytest.mark.parametrize("idx", [None, "max", np.ones(3)], ids=["None", "str", "array"])
    def test_an_unknown_index_type_is_rejected(self, idx):
        sample = FunctionalSample(make_uniform_grid(3), np.ones((2, 3)))
        with pytest.raises(TypeError, match=f"^unknown index type: {type(idx).__name__}$"):
            index_scores(idx, sample)

    def test_zero_quadratic_part_is_pure_linear(self):
        rng = np.random.default_rng(1)
        s = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(40), 30, rng)
        basis = eigendecompose(sample_covariance(s), 3)
        alpha = np.array([1.0, -2.0, 0.5])
        idx = QuadraticIndex(basis=basis, lambda_mat=np.zeros((3, 3)), alpha_vec=alpha)
        scores = project_scores(s, basis, 3)
        assert np.allclose(index_scores(idx, s), 2.0 * scores @ alpha)

    def test_non_finite_lambda_mat_is_rejected(self):
        s = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(20), 10,
                            np.random.default_rng(2))
        basis = eigendecompose(sample_covariance(s), 2)
        lambda_mat = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError, match="^lambda_mat must be finite$"):
            QuadraticIndex(basis=basis, lambda_mat=lambda_mat, alpha_vec=np.zeros(2))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_asymmetric_lambda_mat_is_rejected_at_any_scale(self, scale):
        s = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(20), 10,
                            np.random.default_rng(2))
        basis = eigendecompose(sample_covariance(s), 2)
        lambda_mat = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^lambda_mat must be symmetric$"):
            QuadraticIndex(basis=basis, lambda_mat=lambda_mat, alpha_vec=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_alpha_vec_is_rejected(self, bad):
        s = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(20), 10,
                            np.random.default_rng(2))
        basis = eigendecompose(sample_covariance(s), 2)
        with pytest.raises(ValueError, match="^alpha_vec must be finite$"):
            QuadraticIndex(basis=basis, lambda_mat=np.eye(2), alpha_vec=[0.0, bad])

    @pytest.mark.parametrize("alpha", [[], np.zeros(3), np.zeros((1, 2)), 1.0],
                             ids=["empty", "longer-than-basis", "matrix", "scalar"])
    def test_alpha_vec_must_be_a_vector_no_longer_than_the_basis(self, alpha):
        s = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(20), 10,
                            np.random.default_rng(2))
        basis = eigendecompose(sample_covariance(s), 2)
        k = max(np.size(alpha), 1)
        with pytest.raises(ValueError,
                           match="^alpha_vec must be a vector of 1 to basis count entries$"):
            QuadraticIndex(basis=basis, lambda_mat=np.eye(k), alpha_vec=alpha)

    @pytest.mark.parametrize("lambda_mat", [np.eye(1), np.eye(3), np.ones(2), np.ones((2, 3))],
                             ids=["1x1", "3x3", "vector", "2x3"])
    def test_lambda_mat_must_be_k_by_k(self, lambda_mat):
        s = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(20), 10,
                            np.random.default_rng(2))
        basis = eigendecompose(sample_covariance(s), 3)
        idx = QuadraticIndex(basis=basis, lambda_mat=np.eye(2), alpha_vec=np.zeros(2))
        assert idx.k == 2
        with pytest.raises(ValueError, match="^lambda_mat must be k x k$"):
            QuadraticIndex(basis=basis, lambda_mat=lambda_mat, alpha_vec=np.zeros(2))


class TestFitContext:
    def test_construction_checks_only_the_grids(self):
        d = FunctionalSample(make_uniform_grid(10), np.ones((1, 10)))
        h = FunctionalSample(make_uniform_grid(12), np.zeros((3, 12)))
        for _ in range(2):
            with pytest.raises(GridMismatchError, match="^samples live on different grids$"):
                FitContext(d, h)
        # a one-curve group on a shared grid is not checked yet
        same_grid = FitContext(d, FunctionalSample(d.grid, np.zeros((3, 10))))
        assert same_grid.d is d and same_grid.grid is d.grid
        # each group repeats one curve, so both covariance operators vanish
        flat = FitContext(FunctionalSample(d.grid, np.ones((3, 10))),
                          same_grid.h)
        for _ in range(2):
            with pytest.raises(InsufficientSampleError, match="at least two curves"):
                same_grid.basis
            with pytest.raises(DegenerateOperatorError, match="all-zero spectrum"):
                flat.moments(0.95)

    def test_moments_are_computed_once_and_shared(self):
        spec = ScenarioSpec(name="P1", n_d=30, n_h=30, seed=17, rho=1.0, grid_size=25)
        ctx = FitContext(*generate_scenario(spec))
        assert ctx.basis is ctx.basis
        assert ctx.basis.count == 25
        assert ctx.means[0] is ctx.means[0]
        quad = fit_quadratic(ctx)
        linear = fit_optimal_linear(ctx, penalty_lambda=0.5)
        assert quad.basis is ctx.basis
        gap = Curve(ctx.grid, ctx.means[0].values - ctx.means[1].values)
        assert inner_product(linear.beta, gap) > 0.0

    def test_contexts_on_two_threads_solve_their_bases_at_once(self, monkeypatch):
        # each eigensolve waits until the other thread is inside its own, so
        # the test passes only if no lock shared by the contexts serializes them
        barrier = threading.Barrier(2, timeout=5)
        original = indexes.pooled_eigensystem

        def waiting(*args):
            barrier.wait()
            return original(*args)

        monkeypatch.setattr(indexes, "pooled_eigensystem", waiting)
        spec = ScenarioSpec(name="P1", n_d=30, n_h=30, seed=17, rho=1.0, grid_size=25)
        contexts = [FitContext(*generate_scenario(spec.substream(r))) for r in range(2)]
        errors = []

        def solve(ctx):
            try:
                ctx.basis
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=solve, args=(ctx,)) for ctx in contexts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(ctx.basis.count == 25 for ctx in contexts)

    def test_both_fits_share_one_dimension_choice_and_projection(self, monkeypatch):
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        for name in ("choose_dimension", "project_scores"):
            monkeypatch.setattr(indexes, name, counted(name, getattr(indexes, name)))
        spec = ScenarioSpec(name="P1", n_d=40, n_h=40, seed=5, rho=2.0, grid_size=30)
        ctx = FitContext(*generate_scenario(spec))
        fit_optimal_linear(ctx)
        quad = fit_quadratic(ctx)
        assert calls == ["choose_dimension"]
        moments = ctx.moments(0.95)
        assert ctx.moments(0.95) is moments and moments[0] == quad.k
        assert calls == ["choose_dimension"]
        wider = ctx.moments(1.0)
        assert calls == ["choose_dimension"] * 2
        assert wider is not moments and wider[0] > moments[0]
        assert ctx.moments(1.0) is wider and ctx.moments(0.95) is moments

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(name="P1", n_d=60, n_h=50, seed=2, rho=2.0, grid_size=40),
        ScenarioSpec(name="D20", n_d=40, n_h=40, seed=3, grid_size=400),
    ], ids=["full", "gram"])
    def test_quadratic_fit_matches_the_raw_projection_moments(self, spec):
        # S_g from the shared centered-then-projected coordinates equals the
        # covariance of the projected raw curves, on both basis routes
        ctx = FitContext(*generate_scenario(spec))
        assert (ctx.d.n + ctx.h.n >= spec.grid_size) == (spec.name == "P1")
        quad = fit_quadratic(ctx, ridge=0.0)
        inverses, means = [], []
        for sample in (ctx.d, ctx.h):
            scores = project_scores(sample, ctx.basis, quad.k)
            means.append(scores.mean(axis=0))
            centered = scores - means[-1]
            inverses.append(np.linalg.inv(centered.T @ centered / sample.n))
        lambda_mat = inverses[0] - inverses[1]
        alpha_vec = inverses[0] @ means[0] - inverses[1] @ means[1]
        for got, want in ((quad.lambda_mat, (lambda_mat + lambda_mat.T) / 2.0),
                          (quad.alpha_vec, alpha_vec)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestGramFormBasis:
    """With fewer curves than grid points the pooled basis comes from the Gram form."""

    DRAWS = [
        ScenarioSpec(name="D20", n_d=40, n_h=40, seed=3, grid_size=400),
        ScenarioSpec(name="P1", n_d=3, n_h=3, seed=1, rho=1.0, grid_size=15),
        ScenarioSpec(name="C20", n_d=6, n_h=8, seed=7, grid_size=20),
    ]

    @pytest.mark.parametrize("spec", DRAWS, ids=lambda spec: spec.name)
    @pytest.mark.parametrize("replication", range(3))
    def test_matches_the_full_decomposition(self, spec, replication):
        ctx = FitContext(*generate_scenario(spec.substream(replication)))
        m, n = spec.grid_size, spec.n_d + spec.n_h
        assert n < m
        dual, full = ctx.basis, eigendecompose(pooled_kernel(ctx.d, ctx.h), m)
        for fraction in (0.95, 1.0):
            assert choose_dimension(dual, fraction) == choose_dimension(full, fraction)
        k = choose_dimension(full, 0.95)
        assert np.abs(dual.eigenfunctions[:, :k] - full.eigenfunctions[:, :k]).max() < 1e-10
        lead = full.eigenvalues[0]
        assert np.abs(dual.eigenvalues - full.eigenvalues[: dual.count]).max() <= 1e-12 * lead
        assert dual.total_variance == pytest.approx(full.total_variance, rel=1e-12, abs=0.0)
        # the rank of the centered curves: N - 2 in general position; C20's
        # diseased process has rank 3, so there it is 3 + n_H - 1
        centered = np.vstack([s.values - s.values.mean(axis=0) for s in (ctx.d, ctx.h)])
        rank = np.linalg.matrix_rank(centered)
        assert rank == (3 + spec.n_h - 1 if spec.name == "C20" else n - 2)
        assert dual.count == rank

    def test_within_group_constant_curves_are_degenerate_on_both_paths(self):
        # each group repeats one integer-valued curve, so centering is exact
        # and both covariance operators vanish
        grid = make_uniform_grid(20)
        shape = np.arange(20.0) % 4
        errors = []
        for n in (3, 12):  # N < m (Gram form) and N >= m (full decomposition)
            d = FunctionalSample(grid, np.tile(2.0 * shape, (n, 1)))
            h = FunctionalSample(grid, np.tile(shape, (n, 1)))
            for fit in (fit_optimal_linear, fit_quadratic):
                with pytest.raises(DegenerateOperatorError) as excinfo:
                    fit(FitContext(d, h))
                errors.append(str(excinfo.value))
        assert errors == ["operator has an all-zero spectrum"] * 4

    @pytest.mark.parametrize("floor_share", [0.5, 0.8, 0.9])
    def test_pairs_below_the_rounding_floor_leave_the_whole_fraction_attainable(
            self, floor_share):
        # curves c_i f_0 + s f_i with quadrature-orthonormal f: the pooled operator
        # has one large eigenvalue and 77 equal small ones, set to floor_share times
        # the Gram route's cutoff N eps lambda_max, so they are all dropped; at 0.8
        # and 0.9 they hold more of the trace than choose_dimension's slack
        grid, n = make_uniform_grid(400), 80
        rng = np.random.default_rng(0)
        sqrt_w = np.sqrt(grid.weights)
        functions = np.linalg.qr(sqrt_w[:, None] * rng.standard_normal((400, n + 1)))[0]
        functions /= sqrt_w[:, None]
        c = rng.standard_normal(n)
        spread = sum(np.sum((c[g] - c[g].mean()) ** 2) for g in (slice(0, 40), slice(40, n)))
        share = floor_share * n * np.finfo(float).eps
        scale = np.sqrt(share * spread / (1.0 - share))
        values = c[:, None] * functions[:, 0] + scale * functions[:, 1:].T
        values[:40] += np.sin(np.pi * grid.points)
        d, h = FunctionalSample(grid, values[:40]), FunctionalSample(grid, values[40:])
        basis = FitContext(d, h).basis
        assert basis.count == 1
        assert choose_dimension(basis, 1.0) == 1
        report = analyze(d, h, RunConfig(scenario="curves.csv", var_fraction=1.0))
        assert all(entry["n_ok"] == 1 for entry in report.per_index.values())

    def test_insufficient_group_is_reported_before_any_work(self):
        grid = make_uniform_grid(20)
        rng = np.random.default_rng(4)
        d = FunctionalSample(grid, rng.standard_normal((1, 20)))
        h = FunctionalSample(grid, rng.standard_normal((5, 20)))
        for _ in range(2):
            with pytest.raises(InsufficientSampleError, match="at least two curves"):
                FitContext(d, h).basis


class TestPooledBasis:
    """With at least as many curves as grid points the basis comes from the cross products."""

    DRAWS = [
        ScenarioSpec(name="P1", n_d=30, n_h=30, seed=17, rho=1.0, grid_size=25),
        ScenarioSpec(name="P0", n_d=30, n_h=250, seed=4242, rho=2.0, grid_size=40),
        ScenarioSpec(name="C20", n_d=60, n_h=60, seed=5, grid_size=100),
    ]

    @pytest.mark.parametrize("spec", DRAWS, ids=lambda spec: spec.name)
    @pytest.mark.parametrize("replication", range(2))
    def test_matches_the_decomposition_of_the_pooled_kernel(self, spec, replication):
        ctx = FitContext(*generate_scenario(spec.substream(replication)))
        m = spec.grid_size
        assert spec.n_d + spec.n_h >= m
        basis, full = ctx.basis, eigendecompose(pooled_kernel(ctx.d, ctx.h), m)
        assert basis.count == m
        for fraction in (0.95, 1.0):
            assert choose_dimension(basis, fraction) == choose_dimension(full, fraction)
        k = choose_dimension(full, 0.95)
        assert np.abs(basis.eigenfunctions[:, :k] - full.eigenfunctions[:, :k]).max() < 1e-10
        assert np.abs(basis.eigenvalues - full.eigenvalues).max() <= 1e-12 * full.eigenvalues[0]
        assert basis.total_variance == pytest.approx(full.total_variance, rel=1e-12, abs=0.0)


def mapped_widths(monkeypatch):
    """The width of every batch of eigenfunctions mapped back, recorded at its sign fix."""
    widths = []
    original = estimation._fix_signs

    def recording(functions):
        widths.append(functions.shape[1])
        return original(functions)

    monkeypatch.setattr(estimation, "_fix_signs", recording)
    return widths


class TestOnDemandEigenfunctions:
    """The pooled basis maps back only the eigenfunctions a reader asks for."""

    ROUTES = {
        "full": ScenarioSpec(name="P1", n_d=25, n_h=25, seed=12345, rho=1.0, grid_size=20),
        "gram": ScenarioSpec(name="D20", n_d=20, n_h=20, seed=9, grid_size=100),
    }

    @pytest.mark.parametrize("route", ROUTES)
    def test_reading_eigenfunctions_maps_every_retained_pair(self, route):
        d, h = generate_scenario(self.ROUTES[route])
        ctx = FitContext(d, h)
        functions = ctx.basis.eigenfunctions
        centered = [s.values - s.values.mean(axis=0) for s in (d, h)]
        expected = pooled_eigenfunctions(d.grid, centered)
        assert functions.shape == expected.shape == (len(d.grid), ctx.basis.count)
        assert functions.flags["C_CONTIGUOUS"]
        if route == "full":
            assert np.array_equal(functions, expected)
        else:
            assert np.abs(functions - expected).max() <= 1e-12 * np.abs(expected).max()
        k = ctx.moments(0.95)[0]
        assert np.array_equal(ctx.basis.leading(k), functions[:, :k])

    @pytest.mark.parametrize("route", ROUTES)
    def test_fraction_one_maps_every_retained_pair(self, route, monkeypatch):
        widths = mapped_widths(monkeypatch)
        ctx = FitContext(*generate_scenario(self.ROUTES[route]))
        k = ctx.moments(1.0)[0]
        assert widths == [k] == [ctx.basis.count]

    @pytest.mark.parametrize("route", ROUTES)
    def test_a_larger_fraction_widens_the_mapping_without_a_second_solve(self, route,
                                                                          monkeypatch):
        widths = mapped_widths(monkeypatch)
        solves = []
        original = indexes.pooled_eigensystem

        def counting(*args):
            solves.append(args)
            return original(*args)

        monkeypatch.setattr(indexes, "pooled_eigensystem", counting)
        spec = self.ROUTES[route]
        ctx = FitContext(*generate_scenario(spec))
        narrow, wide = ctx.moments(0.8)[0], ctx.moments(0.99)[0]
        assert narrow < wide < ctx.basis.count
        assert widths == [narrow, wide]
        assert len(solves) == 1
        fresh = FitContext(*generate_scenario(spec)).moments(0.99)
        assert fresh[0] == wide
        for got, expected in zip(ctx.moments(0.99)[1] + ctx.moments(0.99)[2], fresh[1] + fresh[2]):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("route", ROUTES)
    def test_quadratic_scores_match_the_einsum_form(self, route):
        spec = self.ROUTES[route]
        quad = fit_quadratic(FitContext(*generate_scenario(spec)))
        for sample in generate_scenario(spec.substream(1)):
            expected = quadratic_scores(quad, sample)
            got = index_scores(quad, sample)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestRoundingNoiseSpectrum:
    """A pooled spectrum made only of centering roundoff is not fitted."""

    @pytest.mark.parametrize("n", [3, 12])  # N < m (Gram form) and N >= m
    def test_inexact_within_group_constant_curves_are_degenerate(self, n):
        # the group means of these copies are inexact, so the centered
        # curves hold roundoff of order 1e-16 rather than exact zeros
        grid = make_uniform_grid(20)
        shape = np.sin(np.pi * grid.points)
        d = FunctionalSample(grid, np.tile(2.0 * shape, (n, 1)))
        h = FunctionalSample(grid, np.tile(shape, (n, 1)))
        centered = np.vstack([s.values - s.values.mean(axis=0) for s in (d, h)])
        assert np.abs(centered).max() > 0.0
        for fit in (fit_optimal_linear, fit_quadratic):
            with pytest.raises(DegenerateOperatorError, match="all-zero spectrum"):
                fit(FitContext(d, h))

    @pytest.mark.parametrize("n", [3, 12])  # N < m (Gram form) and N >= m
    def test_pooled_eigensystem_rejects_noise_before_the_eigensolve(self, n):
        grid = make_uniform_grid(20)
        shape = np.sin(np.pi * grid.points)
        noise = np.full((n, 20), 1e-17)
        with pytest.raises(DegenerateOperatorError, match="all-zero spectrum"):
            pooled_eigensystem(grid, (noise, -noise), (2.0 * shape, shape))
        # the floor is relative: the same spread around means of its own size is signal
        basis = pooled_eigensystem(grid, (noise, -noise), (1e-17 * shape, 0.0 * shape))
        assert basis.total_variance > 0.0

    @pytest.mark.parametrize("n", [8, 30])
    @pytest.mark.parametrize("scale", [1e-20, 1e20])
    def test_rescaled_curves_fit_to_the_same_aucs(self, n, scale):
        spec = ScenarioSpec(name="P1", n_d=n, n_h=n, seed=3, rho=1.0, grid_size=25)
        d, h = generate_scenario(spec)
        scaled = [FunctionalSample(s.grid, s.values * scale) for s in (d, h)]
        fits = (fit_mean_difference, fit_optimal_linear, fit_quadratic)
        expected = [auc(score_sample(fit(FitContext(d, h)), d, h)) for fit in fits]
        assert [auc(score_sample(fit(FitContext(*scaled)), *scaled)) for fit in fits] == expected


class TestUnitIndex:
    """The routine that both fitted directions end in."""

    def make_context(self):
        spec = ScenarioSpec(name="P1", n_d=20, n_h=20, seed=4, rho=1.0, grid_size=30)
        ctx = FitContext(*generate_scenario(spec))
        return ctx, ctx.means[0].values - ctx.means[1].values

    def test_a_direction_against_the_mean_gap_is_turned(self):
        ctx, diff = self.make_context()
        along, against = (indexes._unit_index(ctx, beta, diff, "test") for beta in (diff, -diff))
        assert np.array_equal(against.beta.values, along.beta.values)
        assert norm(along.beta) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("value", [0.0, 1e300, np.inf, np.nan])
    def test_a_zero_or_overflowing_direction_is_rejected(self, value):
        ctx, diff = self.make_context()
        with pytest.raises(DegenerateDirectionError,
                           match="^test direction collapsed to zero or overflowed$"):
            indexes._unit_index(ctx, np.full(len(ctx.grid), value), diff, "test")


class TestFitMeanDifference:
    def test_direction_is_normalized_mean_gap(self):
        grid = make_uniform_grid(50)
        shape = np.sin(np.pi * grid.points)
        d = FunctionalSample(grid, np.vstack([2 * shape, 2 * shape]))
        h = FunctionalSample(grid, np.zeros((2, 50)))
        idx = fit_mean_difference(FitContext(d, h))
        expected = shape / np.sqrt(np.sum(grid.weights * shape**2))
        assert np.allclose(idx.beta.values, expected, atol=1e-12)
        assert norm(idx.beta) == pytest.approx(1.0, abs=1e-8)

    def test_direction_is_the_mean_gap_over_its_norm_bit_for_bit(self):
        ctx = FitContext(*generate_scenario(ScenarioSpec(name="C20", n_d=30, n_h=40, seed=9)))
        diff = Curve(ctx.grid, ctx.means[0].values - ctx.means[1].values)
        idx = fit_mean_difference(ctx)
        assert np.array_equal(idx.beta.values, diff.values / norm(diff))

    def test_swapping_groups_negates_the_direction(self):
        spec = ScenarioSpec(name="P1", n_d=40, n_h=40, seed=5, rho=1.0)
        d, h = generate_scenario(spec)
        forward = fit_mean_difference(FitContext(d, h))
        backward = fit_mean_difference(FitContext(h, d))
        assert np.allclose(forward.beta.values, -backward.beta.values, atol=1e-12)

    def test_identical_samples_are_degenerate(self):
        spec = ScenarioSpec(name="P1", n_d=10, n_h=10, seed=6, rho=1.0)
        d, _ = generate_scenario(spec)
        with pytest.raises(DegenerateDirectionError):
            fit_mean_difference(FitContext(d, d))

    def test_reaches_published_accuracy_on_shifted_brownian(self):
        spec = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=7, rho=1.0)
        d, h = generate_scenario(spec)
        value = auc(score_sample(fit_mean_difference(FitContext(d, h)), d, h))
        assert value == pytest.approx(0.9653, abs=0.03)


class TestFitOptimalLinear:
    def test_recovers_population_direction_under_identity_scores(self):
        # five-mode model with equal coordinate variances: the optimal
        # direction is the mean difference itself
        rng = np.random.default_rng(8)
        grid = make_uniform_grid(120)
        mean_gap = np.array([0.8, -0.5, 0.3, 0.2, -0.4])
        d, basis = fourier_sample(rng, 5000, grid, mean_gap, 1.0)
        h, _ = fourier_sample(rng, 5000, grid, np.zeros(5), 1.0)
        idx = fit_optimal_linear(FitContext(d, h), var_fraction=0.999)
        target = basis @ mean_gap
        target = target / np.sqrt(np.sum(grid.weights * target**2))
        cosine = float(np.sum(grid.weights * idx.beta.values * target))
        assert np.degrees(np.arccos(np.clip(abs(cosine), 0, 1))) < 5.0

    def test_identical_samples_are_degenerate(self):
        spec = ScenarioSpec(name="P1", n_d=20, n_h=20, seed=9, rho=1.0)
        d, _ = generate_scenario(spec)
        with pytest.raises(DegenerateDirectionError):
            fit_optimal_linear(FitContext(d, d))

    def test_reaches_published_accuracy_on_shifted_brownian(self):
        spec = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=10, rho=1.0)
        d, h = generate_scenario(spec)
        value = auc(score_sample(fit_optimal_linear(FitContext(d, h)), d, h))
        assert value == pytest.approx(0.9892, abs=0.01)

    def test_unit_norm_and_orientation(self):
        spec = ScenarioSpec(name="P1", n_d=60, n_h=60, seed=11, rho=2.0)
        d, h = generate_scenario(spec)
        idx = fit_optimal_linear(FitContext(d, h))
        assert norm(idx.beta) == pytest.approx(1.0, abs=1e-8)
        gap = Curve(d.grid, d.values.mean(axis=0) - h.values.mean(axis=0))
        assert inner_product(idx.beta, gap) >= 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_beats_random_directions_in_the_same_span(self, seed):
        rng = np.random.default_rng(700 + seed)
        spec = ScenarioSpec(name="P1", n_d=80, n_h=80, seed=int(seed), rho=1.0, grid_size=60)
        d, h = generate_scenario(spec)
        idx = fit_optimal_linear(FitContext(d, h), var_fraction=0.95)

        from funcroc import choose_dimension, combine_covariances

        cov_d, cov_h = sample_covariance(d), sample_covariance(h)
        pooled = combine_covariances(cov_d, cov_h, "pooled", n_a=d.n, n_b=h.n)
        average = combine_covariances(cov_d, cov_h, "average")
        basis = eigendecompose(pooled, len(d.grid))
        k = choose_dimension(basis, 0.95)
        grid = d.grid
        gap = d.values.mean(axis=0) - h.values.mean(axis=0)

        def objective(beta_values):
            numer = float(np.sum(grid.weights * beta_values * gap))
            smooth = average.matrix @ (grid.weights * beta_values)
            denom = float(np.sum(grid.weights * beta_values * smooth))
            return numer / np.sqrt(denom)

        best = objective(idx.beta.values)
        for _ in range(100):
            coefs = rng.standard_normal(k)
            candidate = basis.eigenfunctions[:, :k] @ coefs
            candidate /= np.sqrt(np.sum(grid.weights * candidate**2))
            assert objective(candidate) <= best + 1e-10

    def test_pooled_mode_reduces_to_eigenvalue_rescaling(self):
        # with equal group sizes the averaged denominator is the pooled covariance,
        # which the eigenbasis diagonalizes
        spec = ScenarioSpec(name="P1", n_d=100, n_h=100, seed=13, rho=1.0, grid_size=50)
        d, h = generate_scenario(spec)
        idx = fit_optimal_linear(FitContext(d, h), var_fraction=0.95)

        from funcroc import choose_dimension, combine_covariances

        pooled = combine_covariances(
            sample_covariance(d), sample_covariance(h), "pooled", n_a=d.n, n_b=h.n
        )
        basis = eigendecompose(pooled, len(d.grid))
        k = choose_dimension(basis, 0.95)
        gap = d.values.mean(axis=0) - h.values.mean(axis=0)
        delta = basis.eigenfunctions[:, :k].T @ (d.grid.weights * gap)
        direct = basis.eigenfunctions[:, :k] @ (delta / basis.eigenvalues[:k])
        direct /= np.sqrt(np.sum(d.grid.weights * direct**2))
        assert np.allclose(idx.beta.values, direct, atol=1e-8)

    def test_penalty_shrinks_toward_smooth_directions(self):
        spec = ScenarioSpec(name="P1", n_d=80, n_h=80, seed=14, rho=1.0, grid_size=60)
        d, h = generate_scenario(spec)
        plain = fit_optimal_linear(FitContext(d, h))
        damped = fit_optimal_linear(FitContext(d, h), penalty_lambda=1e-3)
        grid = d.grid

        def roughness(values):
            first = np.gradient(values, grid.points)
            second = np.gradient(first, grid.points)
            return float(np.sum(grid.weights * second**2))

        assert roughness(damped.beta.values) < roughness(plain.beta.values)

    def test_indefinite_penalized_system_is_singular_and_isolated(self, monkeypatch):
        spec = ScenarioSpec(name="P1", n_d=40, n_h=40, seed=15, rho=1.0, grid_size=40)
        d, h = generate_scenario(spec)
        # these Brownian scores have variances below 1, so G - I is negative definite
        monkeypatch.setattr(indexes, "second_difference_penalty", lambda basis, k: -np.eye(k))
        with pytest.raises(SingularSystemError, match="projected covariance system is singular"):
            fit_optimal_linear(FitContext(d, h), penalty_lambda=1.0)
        report = analyze(d, h, RunConfig(scenario="curves.csv", reps=1, penalty_lambda=1.0))
        assert report.per_index["linear"]["n_ok"] == 0
        assert report.per_index["linear"]["error"].startswith(
            "SingularSystemError: projected covariance system is singular"
        )
        for name in INDEX_NAMES:
            if name != "linear":
                assert report.per_index[name]["n_ok"] == 1, name

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -0.1])
    def test_penalty_weight_must_be_finite_and_nonnegative(self, lam):
        spec = ScenarioSpec(name="P1", n_d=20, n_h=20, seed=15, rho=1.0, grid_size=20)
        with pytest.raises(ValueError, match="^penalty weight must be finite and nonnegative$"):
            fit_optimal_linear(FitContext(*generate_scenario(spec)), penalty_lambda=lam)

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_overflowing_direction_norm_is_degenerate(self, scale):
        # the direction's coefficients grow like 1/scale and its squared norm overflows
        spec = ScenarioSpec(name="P1", n_d=30, n_h=30, seed=3, rho=1.0, grid_size=20)
        d, h = (FunctionalSample(s.grid, s.values * scale)
                for s in generate_scenario(spec))
        with np.errstate(over="ignore"):
            with pytest.raises(DegenerateDirectionError, match="collapsed to zero or overflowed"):
                fit_optimal_linear(FitContext(d, h))

    def test_second_difference_penalty_is_psd(self):
        spec = ScenarioSpec(name="P1", n_d=40, n_h=40, seed=16, rho=1.0, grid_size=40)
        d, h = generate_scenario(spec)
        basis = eigendecompose(sample_covariance(d), 6)
        penalty = second_difference_penalty(basis, 6)
        assert np.allclose(penalty, penalty.T)
        assert np.linalg.eigvalsh(penalty).min() >= -1e-10

    def test_second_difference_penalty_matches_the_column_loop(self):
        spec = ScenarioSpec(name="P1", n_d=40, n_h=40, seed=16, rho=1.0, grid_size=40)
        d, _ = generate_scenario(spec)
        basis = eigendecompose(sample_covariance(d), 6)
        points = basis.grid.points
        curvatures = np.empty((40, 6))
        for ell in range(6):
            first = np.gradient(basis.eigenfunctions[:, ell], points)
            curvatures[:, ell] = np.gradient(first, points)
        weighted = np.sqrt(basis.grid.weights)[:, None] * curvatures
        assert np.array_equal(second_difference_penalty(basis, 6), weighted.T @ weighted)


class TestScaleInvarianceOfRanking:
    @pytest.mark.parametrize("c", [0.5, 3.0, 17.0])
    def test_positive_rescaling_preserves_roc_and_auc(self, c):
        spec = ScenarioSpec(name="P1", n_d=50, n_h=50, seed=17, rho=1.0, grid_size=40)
        d, h = generate_scenario(spec)
        idx = fit_optimal_linear(FitContext(d, h))
        scaled = LinearIndex(Curve(d.grid, c * idx.beta.values))
        base = score_sample(idx, d, h)
        moved = score_sample(scaled, d, h)
        assert np.array_equal(np.argsort(moved.diseased), np.argsort(base.diseased))
        assert auc(base) == auc(moved)

        from funcroc import roc_curve

        assert np.array_equal(roc_curve(base).roc_values, roc_curve(moved).roc_values)


class TestFitQuadratic:
    def test_null_case_collapses_to_coin_flip(self):
        rng = np.random.default_rng(18)
        grid = make_uniform_grid(60)
        d = sample_gaussian(ProcessSpec("brownian"), grid, 2000, rng)
        h = sample_gaussian(ProcessSpec("brownian"), grid, 2000, rng)
        idx = fit_quadratic(FitContext(d, h))
        assert auc(score_sample(idx, d, h)) == pytest.approx(0.5, abs=0.03)

    def test_same_scores_give_exactly_zero_quadratic_part(self):
        spec = ScenarioSpec(name="P1", n_d=50, n_h=50, seed=19, rho=1.0, grid_size=40)
        d, _ = generate_scenario(spec)
        idx = fit_quadratic(FitContext(d, d))
        assert np.all(idx.lambda_mat == 0.0)
        assert np.all(idx.alpha_vec == 0.0)

    def test_reaches_published_accuracy_on_mode_swapped_model(self):
        spec = ScenarioSpec(name="C20", n_d=300, n_h=300, seed=20)
        d, h = generate_scenario(spec)
        value = auc(score_sample(fit_quadratic(FitContext(d, h)), d, h))
        assert value == pytest.approx(0.9090, abs=0.04)

    def test_perfect_rule_when_covariances_differ_at_origin(self):
        spec = ScenarioSpec(name="D20", n_d=300, n_h=300, seed=21)
        d, h = generate_scenario(spec)
        value = auc(score_sample(fit_quadratic(FitContext(d, h)), d, h))
        assert value >= 0.999

    def test_insufficient_group_size_is_reported(self):
        spec = ScenarioSpec(name="D20", n_d=4, n_h=300, seed=22)
        d, h = generate_scenario(spec)
        with pytest.raises(InsufficientSampleError, match="diseased"):
            fit_quadratic(FitContext(d, h))

    def test_ridge_rescues_singular_scores(self):
        # duplicated curves make the score covariance singular
        grid = make_uniform_grid(30)
        rng = np.random.default_rng(23)
        base = sample_gaussian(ProcessSpec("brownian"), grid, 40, rng)
        dup = FunctionalSample(grid, np.vstack([base.values[:2]] * 20))
        h = sample_gaussian(ProcessSpec("brownian"), grid, 40, rng)

        from funcroc import SingularCovarianceError

        with pytest.raises(SingularCovarianceError) as excinfo:
            fit_quadratic(FitContext(dup, h), var_fraction=0.95, ridge=0.0)
        assert excinfo.value.group == "diseased"
        idx = fit_quadratic(FitContext(dup, h), var_fraction=0.95, ridge=1e-6)
        assert np.all(np.isfinite(idx.lambda_mat))

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1e-6])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        # without this check a non-finite ridge ends as a SingularCovarianceError
        spec = ScenarioSpec(name="P1", n_d=30, n_h=30, seed=3, rho=1.0, grid_size=20)
        d, h = generate_scenario(spec)
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            fit_quadratic(FitContext(d, h), ridge=ridge)

    @pytest.mark.parametrize("ridge", [np.nan, -1.0])
    def test_a_bad_ridge_is_rejected_before_the_basis_is_read(self, ridge, monkeypatch):
        spec = ScenarioSpec(name="P1", n_d=30, n_h=30, seed=3, rho=1.0, grid_size=20)
        d, h = generate_scenario(spec)
        one = FunctionalSample(d.grid, d.values[:1])
        with pytest.raises(ValueError, match="^ridge must be finite and nonnegative$"):
            fit_quadratic(FitContext(one, h), ridge=ridge)
        solves = []
        monkeypatch.setattr(indexes, "pooled_eigensystem", lambda *args: solves.append(args))
        with pytest.raises(ValueError, match="^ridge must be finite and nonnegative$"):
            fit_quadratic(FitContext(d, h), ridge=ridge)
        assert solves == []


class TestQuadraticPopulation:
    def test_equal_covariances_zero_out_the_quadratic_term(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        lam, alpha = quadratic_population(
            np.array([1.0, 0.0]), np.array([0.0, 0.0]), sigma, sigma
        )
        assert np.all(lam == 0.0)
        assert np.allclose(alpha, np.linalg.solve(sigma, [1.0, 0.0]))

    def test_diagonal_closed_form(self):
        lam_d = np.array([2.0, 0.3])
        lam_h = np.array([0.405, 0.045])
        lam, alpha = quadratic_population(
            np.zeros(2), np.zeros(2), np.diag(lam_d), np.diag(lam_h)
        )
        expected = (lam_h - lam_d) / (lam_d * lam_h)  # independent arithmetic
        assert np.allclose(np.diag(lam), expected, atol=1e-12)
        assert np.allclose(lam - np.diag(np.diag(lam)), 0.0)
        assert np.all(alpha == 0.0)

    def test_non_spd_input_rejected(self):
        with pytest.raises(ValueError):
            quadratic_population(
                np.zeros(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["sigma_d", "sigma_h"])
    def test_non_finite_covariance_rejected(self, which, bad):
        sigmas = {"sigma_d": np.eye(2), "sigma_h": np.eye(2)}
        sigmas[which][0, 0] = bad
        with pytest.raises(ValueError, match=f"^{which} must be finite$"):
            quadratic_population(np.zeros(2), np.zeros(2), **sigmas)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["mu_d", "mu_h"])
    def test_non_finite_mean_rejected(self, which, bad):
        means = {"mu_d": np.zeros(2), "mu_h": np.zeros(2)}
        means[which][1] = bad
        with pytest.raises(ValueError, match=f"^{which} must be finite$"):
            quadratic_population(**means, sigma_d=np.eye(2), sigma_h=np.eye(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_projected_decomposition_identity(self, seed):
        # -x' L x + 2 a' x recomposes from the two weighted square norms
        # plus the projected linear part, for finite-rank diagonal models
        rng = np.random.default_rng(800 + seed)
        k = 5
        lam_d = rng.uniform(0.2, 3.0, k)
        lam_h = rng.uniform(0.2, 3.0, k)
        mu_d = rng.standard_normal(k) * lam_d  # keeps mu inside the operator range
        mu_h = rng.standard_normal(k) * lam_h
        lam, alpha = quadratic_population(mu_d, mu_h, np.diag(lam_d), np.diag(lam_h))
        alpha0 = mu_d / lam_d - mu_h / lam_h
        for _ in range(5):
            x = rng.standard_normal(k)
            direct = -x @ lam @ x + 2.0 * alpha @ x
            split = -(
                np.sum((x / np.sqrt(lam_d)) ** 2) - np.sum((x / np.sqrt(lam_h)) ** 2)
            ) + 2.0 * float(alpha0 @ x)
            assert direct == pytest.approx(split, abs=1e-10)


class TestGroupSwapAntisymmetry:
    def test_linear_auc_complements_under_swap(self):
        spec = ScenarioSpec(name="P1", n_d=40, n_h=40, seed=24, rho=1.0, grid_size=30)
        d, h = generate_scenario(spec)
        idx = fit_mean_difference(FitContext(d, h))
        forward = auc(score_sample(idx, d, h))
        backward = auc(score_sample(idx, h, d))
        assert forward + backward == 1.0
