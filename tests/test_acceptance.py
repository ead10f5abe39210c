"""Acceptance suite.

Each test covers one numbered acceptance criterion at its pinned tolerance
and prints one PASS/FAIL line (run with ``pytest -s`` to see them live).
The Monte Carlo criteria drive the full study pipeline end to end; the
remaining ones check closed-form oracles, algebraic identities and metric
properties.
"""

import itertools

import numpy as np

from funcroc import (
    FitContext,
    GaussianPair,
    RunConfig,
    ScenarioSpec,
    ScoreSample,
    auc,
    auc_of_direction,
    binormal_roc,
    eigendecompose,
    fit_quadratic,
    generate_scenario,
    kernel_matrix,
    make_uniform_grid,
    roc_curve,
    run_study,
)
from funcroc.simulation import ProcessSpec
from reference import (
    optimal_auc_direction,
    pooled_correlation_identity,
    quadratic_population,
    youden_direction,
)

SEED = 20260809


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def study_means(scenario, indexes, reps):
    config = RunConfig(scenario=scenario, indexes=indexes, reps=reps)
    study = run_study(config)
    means = {name: study.per_index[name]["mean_auc"] for name in indexes}
    return means, study.elapsed_seconds


def within(value, center, tolerance):
    return abs(value - center) <= tolerance


def test_criterion_01_balanced_shifted_brownian_reproduction():
    scenario = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=SEED, rho=1.0,
                            process="brownian")
    means, elapsed = study_means(
        scenario, ("integral", "meandiff", "linear", "quad"), reps=200
    )
    targets = {
        "integral": (0.9389, 0.02),
        "meandiff": (0.9653, 0.015),
        "linear": (0.9892, 0.01),
        "quad": (0.9987, 0.005),
    }
    checks = {k: within(means[k], *targets[k]) for k in targets}
    ok = all(checks.values()) and elapsed < 300.0
    detail = ", ".join(
        f"{k}={means[k]:.4f} (target {c}±{t})" for k, (c, t) in targets.items()
    ) + f", elapsed={elapsed:.0f}s"
    report(1, "balanced shifted-Brownian study", ok, detail)


def test_criterion_02_equal_means_proportional_covariance():
    scenario = ScenarioSpec(name="P0", n_d=300, n_h=300, seed=SEED, rho=2.0,
                            process="brownian")
    means, _ = study_means(
        scenario, ("integral", "meandiff", "linear", "quad"), reps=200
    )
    ok = within(means["quad"], 0.7648, 0.02) and all(
        0.47 <= means[k] <= 0.58 for k in ("integral", "meandiff", "linear")
    )
    detail = (
        f"quad={means['quad']:.4f} (target 0.7648±0.02), "
        + ", ".join(f"{k}={means[k]:.4f}" for k in ("integral", "meandiff", "linear"))
        + " (window [0.47, 0.58])"
    )
    report(2, "equal-means proportional study", ok, detail)


def test_criterion_03_mode_swapped_common_components():
    scenario = ScenarioSpec(name="C20", n_d=300, n_h=300, seed=SEED)
    means, _ = study_means(scenario, ("max", "min", "quad"), reps=200)
    targets = {"quad": (0.9090, 0.02), "max": (0.7340, 0.02), "min": (0.2647, 0.02)}
    ok = all(within(means[k], *targets[k]) for k in targets)
    detail = ", ".join(
        f"{k}={means[k]:.4f} (target {c}±{t})" for k, (c, t) in targets.items()
    )
    report(3, "mode-swapped finite-rank study", ok, detail)


def test_criterion_04_disjoint_covariance_families():
    scenario = ScenarioSpec(name="D20", n_d=300, n_h=300, seed=SEED)
    means, _ = study_means(scenario, ("max", "quad"), reps=100)
    ok = means["quad"] >= 0.999 and within(means["max"], 0.1486, 0.02)
    detail = (
        f"quad={means['quad']:.4f} (floor 0.999), "
        f"max={means['max']:.4f} (target 0.1486±0.02)"
    )
    report(4, "Brownian-vs-exponential study", ok, detail)


def test_criterion_05_unbalanced_design():
    scenario = ScenarioSpec(name="P0", n_d=30, n_h=250, seed=SEED, rho=2.0,
                            process="expvar")
    means, _ = study_means(scenario, ("linear", "quad"), reps=200)
    ok = within(means["quad"], 0.9943, 0.01) and within(means["linear"], 0.7670, 0.03)
    detail = (
        f"quad={means['quad']:.4f} (target 0.9943±0.01), "
        f"linear={means['linear']:.4f} (target 0.7670±0.03)"
    )
    report(5, "unbalanced proportional study", ok, detail)


def test_criterion_06_closed_form_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    k = 5
    a = rng.standard_normal((k, k))
    b = rng.standard_normal((k, k))
    pair = GaussianPair(
        mu_d=rng.standard_normal(k) + 0.8,
        mu_h=rng.standard_normal(k),
        sigma_d=a @ a.T + k * np.eye(k),
        sigma_h=b @ b.T + k * np.eye(k),
    )
    beta = optimal_auc_direction(pair)
    n = 100_000
    scores = ScoreSample(
        diseased=rng.multivariate_normal(pair.mu_d, pair.sigma_d, n) @ beta,
        healthy=rng.multivariate_normal(pair.mu_h, pair.sigma_h, n) @ beta,
    )
    auc_gap = abs(auc(scores) - auc_of_direction(pair, beta))
    summary = roc_curve(scores)
    interior = slice(1, -1)
    roc_gap = np.abs(
        summary.roc_values[interior] - binormal_roc(pair, beta, summary.p_grid[interior])
    ).max()
    ok = auc_gap <= 0.005 and roc_gap <= 0.01
    report(
        6,
        "closed-form oracle equivalence",
        ok,
        f"|auc gap|={auc_gap:.5f} (<=0.005), sup roc gap={roc_gap:.5f} (<=0.01)",
    )


def test_criterion_07_algebraic_identity_suite():
    rng = np.random.default_rng(SEED + 1)

    # quadratic-score decomposition in eigen coordinates
    decomposition_err = 0.0
    for _ in range(20):
        k = 5
        lam_d = rng.uniform(0.2, 3.0, k)
        lam_h = rng.uniform(0.2, 3.0, k)
        mu_d = rng.standard_normal(k) * lam_d
        mu_h = rng.standard_normal(k) * lam_h
        lam, alpha = quadratic_population(mu_d, mu_h, np.diag(lam_d), np.diag(lam_h))
        alpha0 = mu_d / lam_d - mu_h / lam_h
        x = rng.standard_normal(k)
        direct = -x @ lam @ x + 2.0 * alpha @ x
        split = -(np.sum(x**2 / lam_d) - np.sum(x**2 / lam_h)) + 2.0 * alpha0 @ x
        decomposition_err = max(decomposition_err, abs(direct - split))

    # mixture-correlation identity across prevalences
    correlation_err = 0.0
    for pi_d in (0.1, 0.3, 0.5, 0.7, 0.9):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        pair = GaussianPair(
            rng.standard_normal(4), rng.standard_normal(4),
            a @ a.T + 4 * np.eye(4), b @ b.T + 4 * np.eye(4),
        )
        for _ in range(10):
            lhs, rhs = pooled_correlation_identity(pair, rng.standard_normal(4), pi_d)
            correlation_err = max(correlation_err, abs(lhs - rhs))

    # Youden and AUC optima coincide under equal covariances
    direction_err = 0.0
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 4 * np.eye(4)
        pair = GaussianPair(
            rng.standard_normal(4), rng.standard_normal(4), sigma, sigma
        )
        direction_err = max(
            direction_err,
            np.abs(youden_direction(pair) - optimal_auc_direction(pair)).max(),
        )

    # identical score samples collapse the quadratic part exactly
    spec = ScenarioSpec(name="P1", n_d=60, n_h=60, seed=SEED, rho=1.0, grid_size=40)
    d, _ = generate_scenario(spec)
    collapse = fit_quadratic(FitContext(d, d))
    collapse_exact = bool(
        np.all(collapse.lambda_mat == 0.0) and np.all(collapse.alpha_vec == 0.0)
    )

    ok = (
        decomposition_err <= 1e-10
        and correlation_err <= 1e-12
        and direction_err <= 1e-10
        and collapse_exact
    )
    report(
        7,
        "algebraic identity suite",
        ok,
        f"decomposition err={decomposition_err:.2e} (<=1e-10), "
        f"correlation err={correlation_err:.2e} (<=1e-12), "
        f"direction err={direction_err:.2e} (<=1e-10), "
        f"quadratic collapse exact={collapse_exact}",
    )


def test_criterion_08_roc_estimator_consistency():
    rng_master = np.random.default_rng(SEED + 2)
    k = 3
    a = rng_master.standard_normal((k, k))
    sigma = a @ a.T + k * np.eye(k)
    pair = GaussianPair(
        mu_d=np.array([1.0, -0.5, 0.3]),
        mu_h=np.zeros(k),
        sigma_d=sigma,
        sigma_h=sigma,
    )
    beta = np.array([0.6, 0.2, -0.4])  # fixed, known direction
    p_grid = np.linspace(0.001, 0.999, 999)
    exact = binormal_roc(pair, beta, p_grid)

    def sup_error(n, seed):
        rng = np.random.default_rng(seed)
        scores = ScoreSample(
            diseased=rng.multivariate_normal(pair.mu_d, pair.sigma_d, n) @ beta,
            healthy=rng.multivariate_normal(pair.mu_h, pair.sigma_h, n) @ beta,
        )
        return np.abs(roc_curve(scores, p_grid).roc_values - exact).max()

    errors_small = [sup_error(200, 10_000 + s) for s in range(20)]
    errors_large = [sup_error(3200, 20_000 + s) for s in range(20)]
    factor = np.median(errors_small) / np.median(errors_large)
    ok = factor >= 1.6
    report(
        8,
        "ROC estimator consistency",
        ok,
        f"median sup error n=200: {np.median(errors_small):.4f}, "
        f"n=3200: {np.median(errors_large):.4f}, factor={factor:.2f} (>=1.6)",
    )


def test_criterion_09_metric_property_suite():
    rng = np.random.default_rng(SEED + 3)

    # monotone-transform invariance, exact
    invariance_ok = True
    for _ in range(10):
        s = ScoreSample(rng.standard_normal(30), rng.standard_normal(25))
        t = ScoreSample(np.exp(s.diseased), np.exp(s.healthy))
        base, mapped = roc_curve(s), roc_curve(t)
        invariance_ok &= bool(
            np.array_equal(base.roc_values, mapped.roc_values)
            and base.auc == mapped.auc
            and base.youden == mapped.youden
        )

    # group-swap complement on tie-free scores, exact
    swap_ok = True
    for _ in range(10):
        pooled = rng.permutation(np.arange(50, dtype=float))
        s = ScoreSample(pooled[:23], pooled[23:])
        swap_ok &= auc(s) + auc(ScoreSample(s.healthy, s.diseased)) == 1.0

    # exhaustive double-sum equivalence over a 4-value alphabet
    alphabet = (0.0, 1.0, 2.5, 4.0)
    samples = [
        np.array(combo)
        for size in range(1, 7)
        for combo in itertools.combinations_with_replacement(alphabet, size)
    ]
    brute_ok = True
    pairs = 0
    for d_values in samples:
        for h_values in samples:
            expected = np.sum(d_values[:, None] > h_values[None, :]) / (
                d_values.size * h_values.size
            )
            brute_ok &= auc(ScoreSample(d_values, h_values)) == expected
            pairs += 1

    ok = invariance_ok and swap_ok and brute_ok
    report(
        9,
        "metric property suite",
        ok,
        f"monotone invariance={invariance_ok}, swap complement={swap_ok}, "
        f"double-sum equivalence on {pairs} exhaustive pairs={brute_ok}",
    )


def test_criterion_10_functional_pca_oracle():
    grid = make_uniform_grid(500)
    eig = eigendecompose(kernel_matrix(ProcessSpec("brownian"), grid), 1)
    exact = 4.0 / np.pi**2
    value_err = abs(eig.eigenvalues[0] - exact) / exact
    expected_mode = np.sqrt(2.0) * np.sin(np.pi * grid.points / 2)
    mode_err = np.abs(eig.eigenfunctions[:, 0] - expected_mode).max()
    ok = value_err <= 0.005 and mode_err <= 0.01
    report(
        10,
        "functional PCA oracle",
        ok,
        f"eigenvalue rel err={value_err:.2e} (<=0.5%), "
        f"eigenfunction sup err={mode_err:.2e} (<=0.01)",
    )
