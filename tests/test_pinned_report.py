"""Pinned study summaries: refactors must reproduce them.

``tests/data/pinned_per_index.json`` holds ``per_index`` of ``run_study``
for the configs below, computed with one BLAS thread.  Numbers are
compared at a relative tolerance rather than byte for byte, so another
BLAS build cannot fail the test on last-bit rounding; counts and error
strings must match exactly.  The counting tests check that one draw
shares a single pair of group means and a single pooled eigensystem among
its fitted indexes, that a draw of parameter-free indexes computes neither,
that a draw with fewer curves than grid points solves only the N x N Gram
eigenproblem, that a draw maps back only the k eigenfunctions its fits
read, that a draw scores each fitted index once per group with
``index_scores`` and builds no ``ScoreSample``, and that a study factors
each process kernel once, also when threads miss the factor cache at the
same time.
Machine-readable reports must not depend on whether the helper process ran
part of a study's replications.

Regenerate the fixture (only when a change of numbers is intended) with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_pinned_report.py``.
"""

import dataclasses
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from funcroc import (
    INDEX_NAMES,
    ProcessSpec,
    RunConfig,
    ScenarioSpec,
    emit_report,
    estimation,
    generate_scenario,
    harness,
    indexes,
    make_uniform_grid,
    rocmetrics,
    run_replication,
    run_study,
    simulation,
)
from helper_shim import boot as boot_helper

FIXTURE = Path(__file__).parent / "data" / "pinned_per_index.json"
NUMBERS = ("mean_auc", "sd_auc", "mean_youden")
EXACT = ("n_ok", "n_failed", "error")

P1_BALANCED = ScenarioSpec(name="P1", n_d=25, n_h=25, seed=12345, rho=1.0, grid_size=20)
CONFIGS = {
    "P1-25+25-m20-lambda0": RunConfig(scenario=P1_BALANCED, reps=3),
    "P1-25+25-m20-lambda0.5": RunConfig(scenario=P1_BALANCED, reps=3, penalty_lambda=0.5),
    "P0-rho2-30+250-m40": RunConfig(
        scenario=ScenarioSpec(name="P0", n_d=30, n_h=250, seed=4242, rho=2.0, grid_size=40),
        reps=3,
    ),
    # three curves per group: the quadratic fit succeeds on one draw only
    "P1-3+3-m15": RunConfig(
        scenario=ScenarioSpec(name="P1", n_d=3, n_h=3, seed=1, rho=1.0, grid_size=15),
        reps=3,
    ),
}


def _pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_per_index_matches_the_pinned_report(label):
    expected = _pinned()[label]
    actual = run_study(CONFIGS[label]).per_index
    assert list(actual) == list(expected)
    for name, entry in expected.items():
        got = actual[name]
        assert set(got) == set(entry), name
        for key in EXACT:
            assert got.get(key) == entry.get(key), (name, key)
        for key in NUMBERS:
            if entry[key] is None:
                assert got[key] is None, (name, key)
            else:
                assert got[key] == pytest.approx(entry[key], rel=1e-9, abs=0.0), (name, key)


def test_fixture_covers_a_partial_quadratic_failure():
    quad = _pinned()["P1-3+3-m15"]["quad"]
    assert (quad["n_ok"], quad["n_failed"]) == (1, 2)


def _count_calls(monkeypatch, name):
    """Record every call to the named estimation function, from either module."""
    calls = []
    original = getattr(estimation, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in (estimation, indexes):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


def test_one_draw_decomposes_the_pooled_covariance_once(monkeypatch):
    # 25 + 25 curves on 20 points solve the pooled kernel, 20 + 20 on 100 its Gram form
    pooled = _count_calls(monkeypatch, "pooled_eigensystem")
    full = _count_calls(monkeypatch, "_weighted_eigensystem")
    wide = RunConfig(scenario=ScenarioSpec(name="D20", n_d=20, n_h=20, seed=9, grid_size=100),
                     reps=1, penalty_lambda=0.5)
    for config, full_solves in ((CONFIGS["P1-25+25-m20-lambda0.5"], 1), (wide, 0)):
        pooled.clear()
        full.clear()
        result = run_replication(config, 0)
        assert set(result.auc) == {"max", "min", "integral", "meandiff", "linear", "quad"}
        assert len(pooled) == 1
        assert len(full) == full_solves


def _record_results(monkeypatch, module, name, convert=lambda result: result):
    """Record ``convert`` of what every call to ``module.<name>`` returns."""
    results = []
    original = getattr(module, name)

    def recording(*args):
        result = original(*args)
        results.append(convert(result))
        return result

    monkeypatch.setattr(module, name, recording)
    return results


def test_one_draw_maps_back_only_the_eigenfunctions_its_fits_read(monkeypatch):
    # each batch of eigenfunctions mapped back is sign-fixed once, so _fix_signs sees its width
    widths = _record_results(monkeypatch, estimation, "_fix_signs", lambda f: f.shape[1])
    chosen = _record_results(monkeypatch, indexes, "choose_dimension")
    counts = _record_results(monkeypatch, indexes, "pooled_eigensystem", lambda e: e.count)
    wide = RunConfig(scenario=ScenarioSpec(name="D20", n_d=20, n_h=20, seed=9, grid_size=100),
                     reps=1, penalty_lambda=0.5)
    for config in (CONFIGS["P1-25+25-m20-lambda0.5"], wide):
        for record in (widths, chosen, counts):
            record.clear()
        result = run_replication(config, 0)
        assert set(result.auc) == {"max", "min", "integral", "meandiff", "linear", "quad"}
        assert len(counts) == len(chosen) == 1
        assert widths == chosen
        assert chosen[0] < counts[0]


@pytest.mark.parametrize("label, fitted", [
    ("P1-25+25-m20-lambda0.5", [6, 6, 6]),
    ("P1-3+3-m15", [5, 6, 5]),  # quad fails to fit on two draws
])
def test_each_fitted_index_is_scored_once_per_group_and_no_score_sample_is_built(
        monkeypatch, label, fitted):
    scored = _record_results(monkeypatch, harness, "index_scores", len)
    built = []
    original = rocmetrics.ScoreSample.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(rocmetrics.ScoreSample, "__post_init__", counting)
    counts = []
    for replication in range(CONFIGS[label].reps):
        scored.clear()
        result = run_replication(CONFIGS[label], replication)
        counts.append(len(scored) // 2)
        assert len(scored) == 2 * len(result.auc)
    assert counts == fitted
    assert built == []


def test_one_draw_computes_the_group_means_once(monkeypatch):
    means = _count_calls(monkeypatch, "sample_mean")
    result = run_replication(CONFIGS["P1-25+25-m20-lambda0.5"], 0)
    assert set(result.auc) == {"max", "min", "integral", "meandiff", "linear", "quad"}
    assert len(means) == 2


def _record_norms(monkeypatch):
    """Record the values of every quadrature norm ``indexes`` takes."""
    normed = []
    original = indexes.quadrature_norm

    def recording(values, weights):
        normed.append(values)
        return original(values, weights)

    monkeypatch.setattr(indexes, "quadrature_norm", recording)
    return normed


@pytest.mark.parametrize("names", [INDEX_NAMES, ("meandiff",), ("linear",), ("quad",)],
                         ids=["all", "meandiff", "linear", "quad"])
def test_one_draw_computes_each_mean_norm_once(monkeypatch, names):
    means = _record_results(monkeypatch, indexes, "sample_mean", lambda mean: mean.values)
    normed = _record_norms(monkeypatch)
    config = dataclasses.replace(CONFIGS["P1-25+25-m20-lambda0.5"], indexes=names)
    assert set(run_replication(config, 0).auc) == set(names)
    assert len(means) == 2
    assert [sum(values is mean for values in normed) for mean in means] == [1, 1]


def test_parameter_free_draw_computes_no_covariance(monkeypatch):
    pooled = _count_calls(monkeypatch, "pooled_eigensystem")
    means = _count_calls(monkeypatch, "sample_mean")
    normed = _record_norms(monkeypatch)
    config = dataclasses.replace(
        CONFIGS["P1-25+25-m20-lambda0"], indexes=("max", "min", "integral")
    )
    result = run_replication(config, 0)
    assert set(result.auc) == {"max", "min", "integral"}
    assert means == []
    assert pooled == []
    assert normed == []


def test_wide_grid_draw_builds_no_grid_sized_kernel(monkeypatch):
    # 20 + 20 curves on 100 points: the pooled basis comes from the 40 x 40 Gram form
    config = RunConfig(scenario=ScenarioSpec(name="D20", n_d=20, n_h=20, seed=9, grid_size=100),
                       reps=1, penalty_lambda=0.5)
    d, h = generate_scenario(config.scenario.substream(0))
    shapes = []
    original = np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    result = harness.evaluate(d, h, config)
    assert set(result.auc) == {"max", "min", "integral", "meandiff", "linear", "quad"}
    assert shapes == [(40, 40)]


def _report_bytes(config):
    report = dataclasses.replace(run_study(config), elapsed_seconds=0.0)
    return emit_report(report, "machine-readable")


def test_study_factors_each_process_kernel_once(monkeypatch):
    monkeypatch.setattr(harness, "_use_helper", lambda reps: False)  # the patch stays here
    monkeypatch.setattr(simulation, "_factor_cache", {})
    kernels = []
    original = simulation.kernel_matrix

    def counting(spec, grid):
        kernels.append((spec, len(grid)))
        return original(spec, grid)

    monkeypatch.setattr(simulation, "kernel_matrix", counting)
    spec = ScenarioSpec(name="D20", n_d=20, n_h=20, seed=9, grid_size=50)
    config = RunConfig(scenario=spec, reps=3, keep_roc=True)
    warm = _report_bytes(config)
    diseased, healthy = simulation._scenario_processes(spec)
    assert kernels == [(diseased, 50), (healthy, 50)]
    # one entry holds the scenario's grid and processes, one each process's draw inputs
    grid, *processes = simulation._factor_cache[("D20", None, None, 50)]
    assert len(grid) == 50 and processes == [diseased, healthy]
    inputs = [simulation._factor_cache[(p, grid.points.tobytes())] for p in processes]
    assert len(simulation._factor_cache) == 3
    assert not any(a.flags.writeable for entry in inputs for a in entry if a is not None)

    draws = [generate_scenario(spec.substream(r)) for r in range(3)]
    simulation._factor_cache.clear()
    assert _report_bytes(config) == warm
    for r, (d, h) in enumerate(draws):
        simulation._factor_cache.clear()
        fresh_d, fresh_h = generate_scenario(spec.substream(r))
        assert np.array_equal(d.values, fresh_d.values) and np.array_equal(h.values, fresh_h.values)


def test_concurrent_cold_misses_factor_each_kernel_once(monkeypatch):
    monkeypatch.setattr(simulation, "_factor_cache", {})
    kernels = []
    original = simulation.kernel_matrix

    def slow_counting(spec, grid):
        kernels.append(spec)
        time.sleep(0.05)  # both threads miss before either stores the factor
        return original(spec, grid)

    monkeypatch.setattr(simulation, "kernel_matrix", slow_counting)
    spec, grid = ProcessSpec("brownian"), make_uniform_grid(30)
    start = threading.Barrier(2)
    factors = []

    def draw():
        start.wait(timeout=10)
        factors.append(simulation._process_inputs(spec, grid))

    threads = [threading.Thread(target=draw) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert kernels == [spec]
    assert len(factors) == 2 and factors[0] is factors[1]


class _YieldingCache(dict):
    """A factor cache that hands the interpreter to another thread mid-update."""

    def __len__(self):
        time.sleep(0)
        return super().__len__()

    def __delitem__(self, key):
        time.sleep(0)
        super().__delitem__(key)


def test_factor_cache_survives_concurrent_evictions(monkeypatch):
    # more threads than cores and more kernels than cache slots, so every
    # lookup misses and evicts; without the lock two threads delete one key
    monkeypatch.setattr(simulation, "_factor_cache", _YieldingCache())
    grid = make_uniform_grid(4)
    specs = [ProcessSpec("brownian", scale=1.0 + i)
             for i in range(2 * simulation._FACTOR_CACHE_SIZE)]
    errors, sizes = [], []

    def churn():
        try:
            for _ in range(5):
                for spec in specs:
                    simulation._process_inputs(spec, grid)
                    sizes.append(dict.__len__(simulation._factor_cache))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert max(sizes) == simulation._FACTOR_CACHE_SIZE


PARALLEL_CONFIGS = {
    **{label: dataclasses.replace(config, keep_roc=True) for label, config in CONFIGS.items()},
    "D20-40+40-m40-flip": RunConfig(
        scenario=ScenarioSpec(name="D20", n_d=40, n_h=40, seed=88, grid_size=40),
        reps=5, keep_roc=True, flip_orientation=True,
    ),
    # one id each for the caller and the helper; reps 1 leaves the helper none
    "P1-25+25-m20-reps2": RunConfig(scenario=P1_BALANCED, reps=2, keep_roc=True),
    "P1-25+25-m20-reps1": RunConfig(scenario=P1_BALANCED, reps=1, keep_roc=True),
    # halves of unequal length
    "C20-20+20-m20-reps7": RunConfig(
        scenario=ScenarioSpec(name="C20", n_d=20, n_h=20, seed=6, grid_size=20),
        reps=7, keep_roc=True, penalty_lambda=0.5,
    ),
}


@pytest.fixture(scope="module")
def booted_helper():
    """A booted helper process, so that a study may use it from its first id."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_use_helper", lambda reps: True)
        boot_helper(PARALLEL_CONFIGS["P1-25+25-m20-reps2"])


@pytest.mark.parametrize("label", sorted(PARALLEL_CONFIGS))
def test_reports_do_not_depend_on_the_helper_process(monkeypatch, booted_helper, label):
    config = PARALLEL_CONFIGS[label]
    reports = {}
    for helper in (False, True):
        monkeypatch.setattr(harness, "_use_helper", lambda reps, helper=helper: helper)
        reports[helper] = _report_bytes(config)
    assert reports[True] == reports[False]
    if label == "P1-3+3-m15":
        quad = json.loads(reports[False])["per_index"]["quad"]
        assert (quad["n_ok"], quad["n_failed"]) == (1, 2)


def test_factor_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(simulation, "_factor_cache", {})
    grid = make_uniform_grid(5)
    rng = np.random.default_rng(0)
    scales = [1.0 + i for i in range(simulation._FACTOR_CACHE_SIZE + 3)]
    for scale in scales:
        simulation.sample_gaussian(ProcessSpec("brownian", scale=scale), grid, 2, rng)
    cached_scales = [spec.scale for spec, _ in simulation._factor_cache]
    assert cached_scales == scales[-simulation._FACTOR_CACHE_SIZE:]


if __name__ == "__main__":
    pinned = {label: run_study(config).per_index for label, config in CONFIGS.items()}
    FIXTURE.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
