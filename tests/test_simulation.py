import json
import warnings

import numpy as np
import pytest

from funcroc import (
    CovarianceKernel,
    Grid,
    ProcessSpec,
    RunConfig,
    ScenarioSpec,
    SimulationDegeneracyError,
    eigendecompose,
    emit_report,
    generate_scenario,
    kernel_matrix,
    make_uniform_grid,
    run_study,
    sample_covariance,
    sample_gaussian,
    sine_eigenfunction,
    simulation,
)

BROWNIAN_EIGENVALUES = [(2.0 / ((2 * ell - 1) * np.pi)) ** 2 for ell in (1, 2, 3)]


class TestProcessSpecValidation:
    def test_theta_required_for_exponential(self):
        with pytest.raises(ValueError):
            ProcessSpec(kind="exp_variogram")

    def test_theta_forbidden_for_brownian(self):
        with pytest.raises(ValueError):
            ProcessSpec(kind="brownian", theta=0.5)

    def test_finite_rank_needs_positive_variances(self):
        with pytest.raises(ValueError):
            ProcessSpec("finite_rank", lambdas=(1.0, -0.1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProcessSpec(kind="poisson")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_are_rejected(self, bad):
        with pytest.raises(ValueError, match="requires theta > 0"):
            ProcessSpec("exp_variogram", theta=bad)
        with pytest.raises(ValueError, match="requires theta > 0"):
            ProcessSpec("ornstein_uhlenbeck", theta=bad)
        with pytest.raises(ValueError, match="scale must be positive"):
            ProcessSpec("brownian", scale=bad)
        with pytest.raises(ValueError, match="component variances must be positive"):
            ProcessSpec("finite_rank", lambdas=(1.0, bad))
        with pytest.raises(ValueError, match="^mean amplitude must be finite$"):
            ProcessSpec("brownian", mean_amplitude=bad)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="finite_rank"), "finite_rank requires component variances"),
        (dict(kind="finite_rank", lambdas=()), "finite_rank requires component variances"),
        (dict(kind="brownian", lambdas=(1.0,)), "brownian takes no component variances"),
        (dict(kind="ornstein_uhlenbeck", theta=1.0, lambdas=(1.0,)),
         "ornstein_uhlenbeck takes no component variances"),
    ])
    def test_component_variances_belong_to_finite_rank_alone(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProcessSpec(**kwargs)


class TestKernelMatrix:
    def test_brownian_is_pointwise_minimum(self):
        grid = make_uniform_grid(10)
        kernel = kernel_matrix(ProcessSpec("brownian"), grid)
        i = np.searchsorted(grid.points, 0.2)
        j = np.searchsorted(grid.points, 0.7)
        assert kernel.matrix[i, j] == pytest.approx(0.2)

    def test_exponential_diagonal_is_one(self):
        grid = make_uniform_grid(10)
        kernel = kernel_matrix(ProcessSpec("exp_variogram", theta=0.2), grid)
        assert np.allclose(np.diag(kernel.matrix), 1.0)

    def test_zero_start_diagonal_formula(self):
        # independent arithmetic: var(t) = (1 - exp(-2 theta t)) / (2 theta)
        theta = 1.0 / 3.0
        grid = make_uniform_grid(10)
        kernel = kernel_matrix(ProcessSpec("ornstein_uhlenbeck", theta=theta), grid)
        i = np.searchsorted(grid.points, 0.5)
        t = grid.points[i]
        expected = (1.0 - np.exp(-2.0 * theta * t)) / (2.0 * theta)
        assert kernel.matrix[i, i] == pytest.approx(expected, abs=1e-14)

    def test_finite_rank_is_the_mode_expansion(self):
        grid = make_uniform_grid(25)
        lambdas = (0.3, 2.0, 0.05)
        kernel = kernel_matrix(ProcessSpec("finite_rank", lambdas=lambdas), grid)
        expected = sum(
            lam * np.outer(sine_eigenfunction(ell, grid.points),
                           sine_eigenfunction(ell, grid.points))
            for ell, lam in enumerate(lambdas, start=1)
        )
        assert np.allclose(kernel.matrix, expected, atol=1e-12)

    def test_scale_multiplies_the_kernel(self):
        grid = make_uniform_grid(12)
        base = kernel_matrix(ProcessSpec("brownian"), grid)
        double = kernel_matrix(ProcessSpec("brownian", scale=2.0), grid)
        assert np.allclose(double.matrix, 2.0 * base.matrix)

    def test_vanishing_variance_at_the_origin_stays_positive_on_grid(self):
        grid = make_uniform_grid(100)
        specs = (ProcessSpec("brownian"), ProcessSpec("ornstein_uhlenbeck", theta=1.0 / 3.0))
        for spec in specs:
            diag = np.diag(kernel_matrix(spec, grid).matrix)
            assert diag[0] > 0.0
            assert diag[0] < 0.02

    @pytest.mark.parametrize("theta", [356.0, 400.0, 1e6, 1e300])
    def test_zero_start_kernel_stays_finite_for_a_large_theta(self, theta):
        # exp(2 theta t) overflows from theta = 355 on; the covariance itself never does
        spec = ProcessSpec("ornstein_uhlenbeck", theta=theta)
        grid = make_uniform_grid(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = kernel_matrix(spec, grid).matrix
            sample = sample_gaussian(spec, grid, 4, np.random.default_rng(5))
        assert np.array_equal(matrix, matrix.T)
        # at t = 1, 1 - exp(-2 theta) rounds to 1
        assert matrix[-1, -1] == 1.0 / (2.0 * theta)
        assert np.isfinite(sample.values).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [1e308, np.finfo(float).max])
    def test_an_overflowing_zero_start_theta_at_the_origin_ends_typed(self, theta, monkeypatch):
        # 2 theta overflows; theta * min(s, t) = 0 at t = 0 must not meet it as inf * 0
        monkeypatch.setattr(simulation, "_factor_cache", {})
        spec, grid = ProcessSpec("ornstein_uhlenbeck", theta=theta), Grid([0.0, 0.5, 1.0])
        assert np.array_equal(kernel_matrix(spec, grid).matrix, np.zeros((3, 3)))
        with pytest.raises(SimulationDegeneracyError, match="even after jitter$"):
            sample_gaussian(spec, grid, 4, np.random.default_rng(5))

    def test_zero_start_kernel_is_the_product_form(self):
        # independent arithmetic: exp(-theta (s + t)) (exp(2 theta min(s, t)) - 1) / (2 theta)
        theta = 1.0 / 3.0
        grid = make_uniform_grid(40)
        s, u = np.meshgrid(grid.points, grid.points, indexing="ij")
        expected = np.exp(-theta * (s + u)) * (np.exp(2.0 * theta * np.minimum(s, u)) - 1.0)
        matrix = kernel_matrix(ProcessSpec("ornstein_uhlenbeck", theta=theta), grid).matrix
        assert np.allclose(matrix, expected / (2.0 * theta), rtol=1e-13, atol=0.0)

    def test_catalog_kernels_are_psd_on_the_default_grid(self):
        grid = make_uniform_grid(100)
        specs = [
            ProcessSpec("brownian"),
            ProcessSpec("brownian", scale=2.0),
            ProcessSpec("exp_variogram", theta=0.2),
            ProcessSpec("ornstein_uhlenbeck", theta=1.0 / 3.0),
            ProcessSpec("finite_rank", lambdas=(2.0, 0.3, 0.05)),
            ProcessSpec("finite_rank", lambdas=(0.3, 2.0, 0.05)),
        ]
        for spec in specs:
            matrix = kernel_matrix(spec, grid).matrix
            assert np.allclose(matrix, matrix.T)
            smallest = np.linalg.eigvalsh(matrix).min()
            assert smallest >= -1e-8 * np.abs(matrix).max()


class TestSampleGaussian:
    def test_pointwise_variance_tracks_the_kernel(self):
        grid = make_uniform_grid(100)
        rng = np.random.default_rng(42)
        s = sample_gaussian(ProcessSpec("brownian"), grid, 5000, rng)
        variances = s.values.var(axis=0)
        assert np.abs(variances - grid.points).max() < 0.07

    def test_sine_mean_is_recovered(self):
        grid = make_uniform_grid(100)
        rng = np.random.default_rng(43)
        s = sample_gaussian(
            ProcessSpec("brownian", mean_amplitude=2.0), grid, 5000, rng
        )
        expected = 2.0 * np.sin(np.pi * grid.points)
        assert np.abs(s.values.mean(axis=0) - expected).max() < 0.06

    def test_covariance_scale_law(self):
        grid = make_uniform_grid(50)
        rng = np.random.default_rng(44)
        doubled = sample_gaussian(ProcessSpec("brownian", scale=2.0), grid, 5000, rng)
        estimate = sample_covariance(doubled).matrix
        base = kernel_matrix(ProcessSpec("brownian"), grid).matrix
        keep = base > 0.05  # skip near-zero entries where the ratio is unstable
        ratios = estimate[keep] / base[keep]
        assert abs(np.median(ratios) - 2.0) < 0.2

    def test_finite_rank_paths_live_in_the_mode_span(self):
        grid = make_uniform_grid(60)
        rng = np.random.default_rng(45)
        s = sample_gaussian(ProcessSpec("finite_rank", lambdas=(0.3, 2.0, 0.05)), grid, 200, rng)
        eig = eigendecompose(sample_covariance(s), 10)
        assert eig.eigenvalues[3] < 1e-12 * eig.eigenvalues[0]

    @pytest.mark.parametrize("spec", [
        ProcessSpec("brownian"), ProcessSpec("ornstein_uhlenbeck", theta=1.0 / 3.0)
    ], ids=["brownian", "ornstein_uhlenbeck"])
    def test_a_kernel_singular_at_the_origin_draws_on_the_first_jitter_rung(self, spec,
                                                                            monkeypatch):
        monkeypatch.setattr(simulation, "_factor_cache", {})
        grid = Grid([0.0, 0.5, 1.0])
        tried = []  # the origin's diagonal entry of each matrix factored
        original = np.linalg.cholesky

        def recording(matrix):
            tried.append(matrix[0, 0])
            return original(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        sample = sample_gaussian(spec, grid, 200, np.random.default_rng(6))
        diag_mean = np.diag(kernel_matrix(spec, grid).matrix).mean()
        assert tried == [0.0, 1e-12 * diag_mean]
        assert np.isfinite(sample.values).all()
        assert np.abs(sample.values[:, 0]).max() < 1e-5
        assert sample.values[:, 2].std() > 0.5

    def test_an_indefinite_kernel_raises_and_caches_no_factor(self, monkeypatch):
        monkeypatch.setattr(simulation, "_factor_cache", {})
        grid = make_uniform_grid(3)
        indefinite = CovarianceKernel(grid, np.diag([1.0, -1.0, 1.0]))
        monkeypatch.setattr(simulation, "kernel_matrix", lambda spec, grid: indefinite)
        with pytest.raises(SimulationDegeneracyError,
                           match="^covariance matrix is not positive definite even after jitter$"):
            sample_gaussian(ProcessSpec("brownian"), grid, 5, np.random.default_rng(0))
        assert simulation._factor_cache == {}

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_at_least_one_path(self, n):
        with pytest.raises(ValueError, match="^n must be positive$"):
            sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(5), n,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None, np.float64(4.0), np.bool_(True)])
    def test_needs_an_integer_count(self, n):
        with pytest.raises(ValueError, match="^n must be an integer$"):
            sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(5), n,
                            np.random.default_rng(0))

    def test_a_numpy_integer_count_draws_as_the_int_does(self):
        grid = make_uniform_grid(5)
        a = sample_gaussian(ProcessSpec("brownian"), grid, np.int64(4), np.random.default_rng(0))
        b = sample_gaussian(ProcessSpec("brownian"), grid, 4, np.random.default_rng(0))
        assert a.values.shape == (4, 5) and np.array_equal(a.values, b.values)

    def test_healthy_mode_variances_recovered_within_ten_percent(self):
        grid = make_uniform_grid(100)
        rng = np.random.default_rng(46)
        s = sample_gaussian(ProcessSpec("brownian"), grid, 5000, rng)
        eig = eigendecompose(sample_covariance(s), 3)
        for estimate, exact in zip(eig.eigenvalues, BROWNIAN_EIGENVALUES):
            assert abs(estimate - exact) / exact < 0.10


class TestScenarioSpecValidation:
    def test_known_names_only(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="Q7", n_d=10, n_h=10, seed=0)

    def test_proportional_requires_rho(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="P1", n_d=10, n_h=10, seed=0)

    def test_equal_distributions_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="P0", n_d=10, n_h=10, seed=0, rho=1.0)

    def test_rho_forbidden_outside_proportional(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="C10", n_d=10, n_h=10, seed=0, rho=2.0)

    def test_process_forbidden_outside_proportional(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="D20", n_d=10, n_h=10, seed=0, process="expvar")

    @pytest.mark.parametrize("rho", [np.nan, np.inf])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="requires rho > 0"):
            ScenarioSpec(name="P1", n_d=10, n_h=10, seed=0, rho=rho)

    @pytest.mark.parametrize("field", ["n_d", "n_h", "grid_size", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_integer_fields_must_be_integers(self, field, value):
        kwargs = dict(name="D20", n_d=10, n_h=10, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScenarioSpec(**kwargs)

    @pytest.mark.parametrize("field, value, message", [
        ("n_d", 0, "sample sizes must be positive"),
        ("n_h", -2, "sample sizes must be positive"),
        ("grid_size", 1, "grid size must be at least 2"),
    ])
    def test_counts_below_their_floor_are_rejected(self, field, value, message):
        base = dict(name="P1", n_d=10, n_h=10, seed=1, rho=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScenarioSpec(**{**base, field: value})

    def test_numpy_integers_are_stored_as_int(self):
        spec = ScenarioSpec(name="D20", n_d=np.int64(10), n_h=np.int32(12),
                            seed=np.int64(3), grid_size=np.uint8(20))
        for field in ("n_d", "n_h", "seed", "grid_size"):
            assert type(getattr(spec, field)) is int
        assert (spec.n_d, spec.n_h, spec.seed, spec.grid_size) == (10, 12, 3, 20)

    def test_numpy_rho_is_stored_as_float_and_echoed_as_json(self):
        spec = ScenarioSpec(name="P1", n_d=5, n_h=5, seed=0, rho=np.float32(2.0), grid_size=10)
        assert type(spec.rho) is float and spec.rho == 2.0
        report = run_study(RunConfig(scenario=spec, indexes=("max",), reps=2))
        echo = json.loads(emit_report(report, "machine-readable"))["config"]["scenario"]
        assert echo["rho"] == 2.0

    def test_bool_rho_is_rejected(self):
        with pytest.raises(ValueError, match="^rho must be a real number$"):
            ScenarioSpec(name="P1", n_d=10, n_h=10, seed=0, rho=True)

    def test_string_rho_is_rejected(self):
        with pytest.raises(ValueError, match="^rho must be a real number$"):
            ScenarioSpec(name="P1", n_d=10, n_h=10, seed=0, rho="2")

    def test_default_process_is_brownian(self):
        spec = ScenarioSpec(name="P1", n_d=10, n_h=10, seed=0, rho=1.0)
        assert spec.process == "brownian"

    def test_empty_process_is_rejected(self):
        with pytest.raises(ValueError, match="^process must be 'brownian' or 'expvar'$"):
            ScenarioSpec(name="P1", n_d=10, n_h=10, seed=0, rho=1.0, process="")


# every scenario family, with both base processes of P0/P1 and the OU-healthy D1x
FAMILY_SPECS = [
    *(ScenarioSpec(name=name, n_d=6, n_h=8, seed=70 + i, rho=rho, process=process,
                   grid_size=12)
      for i, (name, rho, process) in enumerate([("P0", 2.0, "brownian"), ("P0", 2.0, "expvar"),
                                                 ("P1", 1.5, "brownian"), ("P1", 1.5, "expvar")])),
    *(ScenarioSpec(name=name, n_d=6, n_h=8, seed=80 + i, grid_size=12)
      for i, name in enumerate(["C20", "C21", "D10", "D11", "D20", "D21"])),
]


def _fresh_draw(spec, monkeypatch):
    """``sample_gaussian`` of processes and a grid built anew, through an empty cache."""
    monkeypatch.setattr(simulation, "_factor_cache", {})
    grid = make_uniform_grid(spec.grid_size)
    diseased, healthy = simulation._scenario_processes(spec)
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    return (sample_gaussian(diseased, grid, spec.n_d, rng),
            sample_gaussian(healthy, grid, spec.n_h, rng))


def _evict_all(grid_size=4):
    for i in range(simulation._FACTOR_CACHE_SIZE):
        simulation.sample_gaussian(ProcessSpec("brownian", scale=1.0 + i),
                                   make_uniform_grid(grid_size), 1, np.random.default_rng(0))


class TestGenerateScenario:
    @pytest.mark.parametrize("spec", FAMILY_SPECS,
                             ids=lambda spec: f"{spec.name}-{spec.process or 'fixed'}")
    def test_draws_equal_fresh_processes_cold_warm_and_after_eviction(self, spec,
                                                                        monkeypatch):
        specs = [spec.substream(r) for r in range(2)]
        expected = [_fresh_draw(s, monkeypatch) for s in specs]
        monkeypatch.setattr(simulation, "_factor_cache", {})
        draws = [generate_scenario(s) for s in specs]  # cold, then warm
        key = (spec.name, spec.rho, spec.process, spec.grid_size)
        assert key in simulation._factor_cache
        _evict_all()
        assert key not in simulation._factor_cache
        draws += [generate_scenario(s) for s in specs]
        for (d, h), (fresh_d, fresh_h) in zip(draws, expected * 2):
            assert d.grid.compatible_with(fresh_d.grid) and h.grid is d.grid
            assert np.array_equal(d.values, fresh_d.values)
            assert np.array_equal(h.values, fresh_h.values)

    def test_identical_specs_give_bit_identical_samples(self):
        spec = ScenarioSpec(name="C21", n_d=15, n_h=17, seed=987)
        d1, h1 = generate_scenario(spec)
        d2, h2 = generate_scenario(spec)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(h1.values, h2.values)

    def test_pair_is_diseased_then_healthy(self):
        spec = ScenarioSpec(name="D10", n_d=4, n_h=5, seed=1)
        d, h = generate_scenario(spec)
        assert d.n == 4 and h.n == 5

    def test_substreams_differ_and_commute(self):
        spec = ScenarioSpec(name="P1", n_d=6, n_h=6, seed=31, rho=1.0, grid_size=20)
        d3a, _ = generate_scenario(spec.substream(3))
        _, _ = generate_scenario(spec.substream(1))
        d3b, _ = generate_scenario(spec.substream(3))
        d0, _ = generate_scenario(spec.substream(0))
        assert np.array_equal(d3a.values, d3b.values)
        assert not np.array_equal(d3a.values, d0.values)

    def test_proportional_scenario_scales_the_diseased_covariance(self):
        spec = ScenarioSpec(name="P0", n_d=4000, n_h=4000, seed=55, rho=2.0,
                            grid_size=30)
        d, h = generate_scenario(spec)
        var_d = d.values.var(axis=0)
        var_h = h.values.var(axis=0)
        assert abs(np.median(var_d / var_h) - 2.0) < 0.2

    def test_mode_swapped_diseased_sample_has_rank_three(self):
        spec = ScenarioSpec(name="C20", n_d=300, n_h=300, seed=56)
        d, _ = generate_scenario(spec)
        eig = eigendecompose(sample_covariance(d), 6)
        assert eig.eigenvalues[3] < 1e-12 * eig.eigenvalues[0]

    def test_shifted_brownian_diseased_mean(self):
        spec = ScenarioSpec(name="D21", n_d=4000, n_h=10, seed=57)
        d, _ = generate_scenario(spec)
        expected = 2.0 * np.sin(np.pi * d.grid.points)
        assert np.abs(d.values.mean(axis=0) - expected).max() < 0.08

    def test_mode_swapped_healthy_is_plain_brownian(self):
        spec = ScenarioSpec(name="C10", n_d=10, n_h=5000, seed=58)
        _, h = generate_scenario(spec)
        eig = eigendecompose(sample_covariance(h), 3)
        for estimate, exact in zip(eig.eigenvalues, BROWNIAN_EIGENVALUES):
            assert abs(estimate - exact) / exact < 0.10
