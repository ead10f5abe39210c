import contextlib
import dataclasses
import json
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from funcroc import (
    FITTERS,
    INDEX_NAMES,
    Curve,
    CurveParseError,
    FitContext,
    FuncrocError,
    FunctionalSample,
    GridMismatchError,
    InsufficientSampleError,
    LinearIndex,
    ProcessSpec,
    ReplicationResult,
    RunConfig,
    ScenarioSpec,
    ScoreSample,
    SingularCovarianceError,
    analyze,
    default_p_grid,
    emit_report,
    evaluate,
    fit_indexes,
    generate_scenario,
    index_scores,
    ingest_curves,
    make_uniform_grid,
    roc_curve,
    run_replication,
    run_study,
    sample_gaussian,
    score_sample,
    summarize_pair,
)
from funcroc import _helper, harness
from funcroc.harness import roc_export_rows
import helper_shim
from reference import study_entry

DATA_DIR = Path(__file__).parent / "data"
SHIM = Path(helper_shim.__file__).resolve()
HELPER_SOURCE = str(Path(harness.__file__).resolve().parents[1])  # where funcroc is imported from


def write_curve_file(path, points, rows):
    header = "label," + ",".join(f"{t:.6f}" for t in points)
    lines = [header]
    for label, values in rows:
        lines.append(label + "," + ",".join(str(v) for v in values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def small_scenario(**overrides):
    base = dict(name="P1", n_d=30, n_h=30, seed=321, rho=1.0, grid_size=25)
    base.update(overrides)
    return ScenarioSpec(**base)


def study_config(reps, seed=321):
    return RunConfig(scenario=small_scenario(seed=seed), indexes=("max",), reps=reps)


class TestRunConfigValidation:
    @pytest.mark.parametrize("indexes,message", [
        (("max", "banana"), "^unknown index names: banana$"),
        ("max", "^indexes must be a sequence of index names, not one string$"),
    ])
    def test_unknown_index_rejected(self, indexes, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(scenario=small_scenario(), indexes=indexes)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(scenario=small_scenario(), var_fraction=1.5)

    def test_bad_reps_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(scenario=small_scenario(), reps=0)

    @pytest.mark.parametrize("size", [1, 0, -5])
    def test_a_probability_grid_needs_two_points(self, size):
        with pytest.raises(ValueError, match="^p_grid_size must be at least 2$"):
            RunConfig(scenario=small_scenario(), p_grid_size=size)

    @pytest.mark.parametrize("indexes,listed", [
        (("max", "banana", "kiwi"), "banana, kiwi"),
        (["max", 3], "3"),
        ([None], "None"),
        ([["max"]], r"\['max'\]"),
    ])
    def test_unknown_names_are_listed_readably(self, indexes, listed):
        with pytest.raises(ValueError, match=f"unknown index names: {listed}$"):
            RunConfig(scenario=small_scenario(), indexes=indexes)

    @pytest.mark.parametrize("scenario", [3, None, 2.5])
    def test_scenario_must_be_a_spec_or_a_path(self, scenario):
        with pytest.raises(ValueError, match="^scenario must be a ScenarioSpec or the path"):
            RunConfig(scenario=scenario)

    def test_empty_index_list_rejected(self):
        with pytest.raises(ValueError, match="at least one index"):
            RunConfig(scenario=small_scenario(), indexes=())

    @pytest.mark.parametrize("field", ["penalty_lambda", "ridge"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_penalty_and_ridge_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RunConfig(scenario=small_scenario(), **{field: value})

    @pytest.mark.parametrize("field", ["reps", "p_grid_size"])
    @pytest.mark.parametrize("value", [2.5, 5.5, 3.0, True, np.float64(4.0), "5"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            RunConfig(scenario=small_scenario(), **{field: value})

    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3)])
    def test_python_and_numpy_integer_counts_are_accepted(self, value):
        config = RunConfig(scenario=small_scenario(), indexes=("max",), reps=value,
                           p_grid_size=value)
        assert type(config.reps) is int and type(config.p_grid_size) is int
        report = run_study(config)
        assert report.replications == 3
        assert json.loads(emit_report(report, "machine-readable"))["config"]["reps"] == 3

    @pytest.mark.parametrize("names,repeated", [
        (("max", "max"), "max"), (("quad", "max", "linear", "max", "quad"), "quad, max"),
    ])
    def test_repeated_index_names_are_rejected(self, names, repeated):
        with pytest.raises(ValueError, match=f"^duplicate index names: {repeated}$"):
            RunConfig(scenario=small_scenario(), indexes=names)

    @pytest.mark.parametrize("field", ["var_fraction", "penalty_lambda", "ridge"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None])
    def test_settings_must_be_real_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number$"):
            RunConfig(scenario=small_scenario(), **{field: value})

    @pytest.mark.parametrize("field", ["var_fraction", "penalty_lambda", "ridge"])
    @pytest.mark.parametrize("value", [np.float32(0.25), np.float64(0.25), 1, np.int64(1)])
    def test_numpy_and_integer_settings_are_stored_as_floats(self, field, value):
        config = RunConfig(scenario=small_scenario(), indexes=("max", "linear"), reps=2,
                           **{field: value})
        assert type(getattr(config, field)) is float
        assert getattr(config, field) == float(value)
        echo = json.loads(emit_report(run_study(config), "machine-readable"))["config"]
        assert echo[field] == float(value)

    @pytest.mark.parametrize("value", [1, 0, 1.0, "yes", None])
    def test_flip_orientation_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="^flip_orientation must be a bool$"):
            RunConfig(scenario=small_scenario(), flip_orientation=value)

    def test_numpy_bool_flip_orientation_is_stored_as_bool(self):
        config = RunConfig(scenario=small_scenario(), indexes=("max",), reps=2,
                           flip_orientation=np.bool_(True))
        assert config.flip_orientation is True
        echo = json.loads(emit_report(run_study(config), "machine-readable"))["config"]
        assert echo["flip_orientation"] is True

    def test_report_echoes_every_field_but_keep_roc(self):
        config = RunConfig(scenario=small_scenario(), indexes=("max",), reps=2, keep_roc=True)
        names = {f.name for f in dataclasses.fields(RunConfig)} - {"keep_roc"}
        assert set(harness._config_echo(config)) == names


class TestRunReplication:
    def test_deterministic_given_config_and_id(self):
        config = RunConfig(scenario=small_scenario(), indexes=("integral", "linear"))
        a = run_replication(config, 5)
        b = run_replication(config, 5)
        assert a.auc == b.auc
        assert a.youden == b.youden

    def test_integral_auc_on_shifted_brownian_band(self):
        spec = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=20260809, rho=1.0)
        config = RunConfig(scenario=spec, indexes=("integral",))
        result = run_replication(config, 0)
        assert 0.90 <= result.auc["integral"] <= 0.97

    def test_fitted_integral_is_the_weighted_sum_on_its_own_grid(self):
        d, h = generate_scenario(small_scenario(n_d=12, n_h=15))
        index = FITTERS["integral"](FitContext(d, h), RunConfig(scenario="file.csv"))
        for s in (d, h):
            assert np.array_equal(index_scores(index, s), s.values @ s.grid.weights)
        other = FunctionalSample(make_uniform_grid(len(d.grid) + 1), np.ones((2, len(d.grid) + 1)))
        with pytest.raises(GridMismatchError, match="different grids"):
            index_scores(index, other)

    def test_failed_fit_is_isolated_per_index(self):
        # tiny diseased group: the quadratic fit cannot run, others can
        spec = ScenarioSpec(name="D20", n_d=3, n_h=60, seed=77, grid_size=40)
        config = RunConfig(scenario=spec)
        result = run_replication(config, 0)
        assert "quad" in result.errors
        assert "quad" not in result.auc
        for name in ("max", "min", "integral", "meandiff"):
            assert name in result.auc

    def test_requires_a_simulation_scenario(self):
        config = RunConfig(scenario="somefile.csv")
        with pytest.raises(ValueError):
            run_replication(config, 0)

    def test_flip_reports_the_complement_for_reversed_indexes(self):
        spec = ScenarioSpec(name="D20", n_d=40, n_h=40, seed=88, grid_size=40)
        plain = run_replication(RunConfig(scenario=spec, indexes=("max",)), 0)
        flipped = run_replication(
            RunConfig(scenario=spec, indexes=("max",), flip_orientation=True), 0
        )
        assert plain.auc["max"] < 0.5
        assert flipped.auc["max"] == pytest.approx(1.0 - plain.auc["max"], abs=1e-12)


def assert_same_result(a: ReplicationResult, b: ReplicationResult):
    """Equal bit for bit: AUC and Youden values (as hex, so a zero's sign counts), ROC values
    and the repr of each error, each in the same key order."""
    def keyed(values: dict, text) -> list:
        return [(name, text(value)) for name, value in values.items()]

    for field in ("auc", "youden"):
        assert keyed(getattr(a, field), float.hex) == keyed(getattr(b, field), float.hex)
    assert keyed(a.roc_values, np.ndarray.tobytes) == keyed(b.roc_values, np.ndarray.tobytes)
    assert keyed(a.errors, repr) == keyed(b.errors, repr)


def fresh_replication(config: RunConfig, replication: int) -> ReplicationResult:
    """What ``run_replication`` computes, on new arrays only."""
    return evaluate(*generate_scenario(config.scenario.substream(replication)), config)


class TestReplicationBuffers:
    """``run_replication`` draws and centers in buffers that its thread keeps; the numbers are
    those of the public functions, which allocate anew, and no sample or result shares them."""

    @pytest.fixture(autouse=True)
    def new_thread_state(self, monkeypatch):
        """Each test starts as on a thread that has run no replication."""
        monkeypatch.setattr(harness, "_thread", threading.local())

    @staticmethod
    def kept() -> dict:
        return dict(vars(harness._thread).get("kept", {}))

    @pytest.mark.parametrize("studies", [
        [dict(name="P1", n_d=300, n_h=300, rho=1.0)],  # N >= m: the summed cross products
        [dict(name="D20", n_d=40, n_h=40, grid_size=400)],  # N < m: the Gram route
        [dict(name="C20", n_d=300, n_h=300)],  # a finite-rank diseased process
        [dict(name="P0", n_d=30, n_h=250, rho=2.0, process="expvar")],
        # the shape changes between studies on one thread
        [dict(name="P0", n_d=30, n_h=250, rho=2.0, process="expvar"),
         dict(name="P1", n_d=300, n_h=300, rho=1.0),
         dict(name="P0", n_d=30, n_h=250, rho=2.0, process="expvar")],
    ], ids=["P1", "D20-wide", "C20", "P0-expvar", "shape-change"])
    def test_each_replication_equals_the_fresh_path_bit_for_bit(self, studies):
        for number, study in enumerate(studies):
            config = RunConfig(scenario=ScenarioSpec(seed=900 + number, **study), keep_roc=True)
            for replication in range(4):
                result = run_replication(config, replication)
                kept = self.kept()
                if replication > 0:  # the same buffers again: reused, not replaced
                    assert all(kept[name] is buffer for name, buffer in previous.items())
                previous = kept
                assert_same_result(result, fresh_replication(config, replication))
        assert sorted(kept) == ["centered diseased", "centered healthy", "diseased",
                                "healthy", "normals"]

    def test_a_replication_allocates_no_draw_or_centered_curves_of_its_own(self):
        # tracemalloc sees numpy's array allocations, whatever the allocator does with them:
        # drawing and centering in new arrays peaked at 1.2 MB, the kept buffers at 0.3 (numpy 2.4)
        spec = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=45, rho=1.0)
        run_replication(RunConfig(scenario=spec), 0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_replication(RunConfig(scenario=spec), 1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * spec.n_d * spec.grid_size * 8

    def test_a_generated_sample_owns_its_values_and_a_study_leaves_them(self):
        spec = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=41, rho=1.0)
        samples = generate_scenario(spec)
        copies = [s.values.copy() for s in samples]
        ctx = FitContext(*samples)
        centered = ctx._curves()[2]
        for replication in range(3):
            run_replication(RunConfig(scenario=spec), replication)
        buffers = self.kept().values()
        assert len(buffers) == 5
        for s, copy in zip(samples, copies):
            assert s.values.flags.owndata and np.array_equal(s.values, copy)
        for values in [s.values for s in samples] + list(centered):
            assert not any(np.shares_memory(values, buffer) for buffer in buffers)

    def test_no_result_array_shares_a_buffer(self):
        config = RunConfig(scenario=ScenarioSpec(name="P1", n_d=300, n_h=300, seed=42, rho=1.0),
                           keep_roc=True)
        results = [run_replication(config, replication) for replication in range(2)]
        buffers = self.kept().values()
        assert len(buffers) == 5
        for result in results:
            assert len(result.roc_values) == len(INDEX_NAMES)
            for values in result.roc_values.values():
                assert not any(np.shares_memory(values, buffer) for buffer in buffers)

    def test_a_replication_that_raises_hands_no_buffers_on(self, monkeypatch):
        spec = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=43, rho=1.0)
        config = RunConfig(scenario=spec, indexes=("max", "quad"))
        run_replication(config, 0)  # the thread's buffers exist before the failure
        seen, fit_quad = [], FITTERS["quad"]

        def failing(ctx, config):
            # these views keep the taken buffers alive: new buffers cannot reuse their memory
            seen.extend((ctx.d.values, ctx.h.values, *ctx._curves()[2]))
            raise RuntimeError("not a FuncrocError")

        monkeypatch.setitem(harness.FITTERS, "quad", failing)
        with pytest.raises(RuntimeError, match="^not a FuncrocError$"):
            run_replication(config, 1)
        assert "kept" not in vars(harness._thread)
        monkeypatch.setitem(harness.FITTERS, "quad", fit_quad)
        result = run_replication(config, 2)
        buffers = self.kept().values()
        assert len(buffers) == 5 and len(seen) == 4
        for values in seen:
            assert not any(np.shares_memory(values, buffer) for buffer in buffers)
        assert_same_result(result, fresh_replication(config, 2))

    def test_a_replication_inside_another_gets_buffers_of_its_own(self, monkeypatch):
        spec = ScenarioSpec(name="P1", n_d=300, n_h=300, seed=44, rho=1.0)
        config = RunConfig(scenario=spec, keep_roc=True)
        expected = {replication: fresh_replication(config, replication) for replication in (1, 2)}
        run_replication(config, 0)  # the thread's buffers exist before the nesting
        inner, outer_arrays, inner_buffers = [], [], []
        fit_max = FITTERS["max"]

        def nesting(ctx, config):
            outer_arrays.extend((ctx.d.values, ctx.h.values, *ctx._curves()[2]))
            with monkeypatch.context() as patch:
                patch.setitem(harness.FITTERS, "max", fit_max)
                inner.append(run_replication(config, 2))
            inner_buffers.extend(self.kept().values())
            return fit_max(ctx, config)

        monkeypatch.setitem(harness.FITTERS, "max", nesting)
        outer = run_replication(config, 1)
        assert len(inner) == 1 and len(inner_buffers) == 5 and len(outer_arrays) == 4
        for values in outer_arrays:
            assert not any(np.shares_memory(values, buffer) for buffer in inner_buffers)
        assert_same_result(outer, expected[1])
        assert_same_result(inner[0], expected[2])


class TestBatchedSummary:
    """The per-draw batch against the one-index-at-a-time summary path."""

    @staticmethod
    def one_at_a_time(config, replication_id):
        d, h = generate_scenario(config.scenario.substream(replication_id))
        ctx = FitContext(d, h)
        summaries, errors, flipped = {}, {}, []
        for name in config.indexes:
            try:
                scores = score_sample(FITTERS[name](ctx, config), d, h)
            except FuncrocError as exc:
                errors[name] = f"{type(exc).__name__}: {exc}"
                continue
            summary = roc_curve(scores, default_p_grid(config.p_grid_size))
            if config.flip_orientation and summary.auc < 0.5:
                flipped_scores = ScoreSample(scores.healthy, scores.diseased)
                summary = roc_curve(flipped_scores, default_p_grid(config.p_grid_size))
                flipped.append(name)
            summaries[name] = summary
        return summaries, errors, flipped

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("spec, indexes, fitted", [
        # max has AUC below one half on most D20 draws, so flipping changes rows
        (ScenarioSpec(name="D20", n_d=40, n_h=40, seed=88, grid_size=40), INDEX_NAMES, 6),
        # quad fails on some draws and fits on others
        (ScenarioSpec(name="P1", n_d=3, n_h=3, seed=1, rho=1.0, grid_size=15), INDEX_NAMES, None),
        # quad always fails, so a single row is summarized
        (ScenarioSpec(name="D20", n_d=3, n_h=50, seed=5, grid_size=30), ("quad", "max"), 1),
    ])
    def test_rows_equal_the_per_index_path_bit_for_bit(self, spec, indexes, fitted, flip):
        config = RunConfig(scenario=spec, indexes=indexes, reps=4, keep_roc=True,
                           flip_orientation=flip)
        dropped = flipped = 0
        for replication_id in range(4):
            result = run_replication(config, replication_id)
            summaries, errors, flipped_names = self.one_at_a_time(config, replication_id)
            stored = {name: f"{type(exc).__name__}: {exc}" for name, exc in result.errors.items()}
            assert stored == errors
            assert list(result.auc) == list(result.youden) == list(summaries)
            if fitted is not None:
                assert len(summaries) == fitted
            dropped += len(errors)
            flipped += len(flipped_names)
            for name, summary in summaries.items():
                assert result.auc[name] == summary.auc
                assert result.youden[name] == summary.youden
                assert np.array_equal(result.roc_values[name], summary.roc_values)
        assert (dropped > 0) == (fitted != 6)
        if flip and fitted == 6:
            assert flipped > 0

    def test_non_finite_scores_raise_the_score_sample_error(self, monkeypatch):
        d, h = (FunctionalSample(s.grid, s.values * 1e300)
                for s in generate_scenario(small_scenario()))
        config = RunConfig(scenario="file.csv", indexes=("max", "linear"))
        with np.errstate(over="ignore", invalid="ignore"):
            huge = LinearIndex(Curve(d.grid, np.full(len(d.grid), 1e300)))  # scores overflow
            monkeypatch.setitem(FITTERS, "linear", lambda ctx, config: huge)
            with pytest.raises(ValueError, match="^diseased scores must be finite$"):
                analyze(d, h, config)
            with pytest.raises(ValueError, match="^diseased scores must be finite$"):
                score_sample(huge, d, h)


class TestHeldOutScoring:
    """Indexes fitted on one draw summarize another draw through ``summarize_pair``."""

    def test_rows_equal_the_roc_curve_of_the_other_draws_scores(self):
        config = RunConfig(scenario=small_scenario(), keep_roc=True)
        fitted = fit_indexes(FitContext(*generate_scenario(config.scenario.substream(0))), config)
        d, h = generate_scenario(config.scenario.substream(1))
        result = summarize_pair(fitted, d, h, config)
        assert not result.errors
        assert list(result.auc) == list(fitted) == list(INDEX_NAMES)
        for name, index in fitted.items():
            summary = roc_curve(score_sample(index, d, h), default_p_grid(config.p_grid_size))
            assert result.auc[name] == summary.auc
            assert result.youden[name] == summary.youden
            assert np.array_equal(result.roc_values[name], summary.roc_values)

    @pytest.mark.parametrize("name", ["linear", "quad"])
    def test_a_pair_on_another_grid_is_rejected(self, name):
        config = RunConfig(scenario=small_scenario(), indexes=(name,))
        fitted = fit_indexes(FitContext(*generate_scenario(config.scenario)), config)
        assert not isinstance(fitted[name], FuncrocError)
        d, h = generate_scenario(small_scenario(grid_size=26))
        with pytest.raises(GridMismatchError, match="different grids"):
            summarize_pair(fitted, d, h, config)

    @pytest.mark.parametrize("indexes", [("max", "min"), ()])
    def test_a_pair_on_two_grids_is_rejected_whatever_was_fitted(self, indexes):
        # max and min check no grid, and an empty fit scores nothing
        config = RunConfig(scenario=small_scenario(grid_size=10), indexes=("max", "min"))
        fitted = fit_indexes(FitContext(*generate_scenario(config.scenario)), config)
        fitted = {name: fitted[name] for name in indexes}
        d, _ = generate_scenario(config.scenario.substream(1))
        _, h = generate_scenario(small_scenario(grid_size=12))
        with pytest.raises(GridMismatchError, match="^samples live on different grids$"):
            summarize_pair(fitted, d, h, config)


def singular_pair():
    """Diseased curves that repeat two curves, so quad's diseased covariance is singular."""
    grid = make_uniform_grid(30)
    rng = np.random.default_rng(23)
    base = sample_gaussian(ProcessSpec("brownian"), grid, 40, rng)
    dup = FunctionalSample(grid, np.vstack([base.values[:2]] * 20))
    return dup, sample_gaussian(ProcessSpec("brownian"), grid, 40, rng)


class TestStoredErrors:
    """A failed fit's error is kept as the exception, without any traceback."""

    @staticmethod
    def chain(exc):
        """``exc`` and every exception in its ``__cause__``/``__context__`` chain."""
        links, stack = [], [exc]
        while stack:
            link = stack.pop()
            if link is not None and all(link is not seen for seen in links):
                links.append(link)
                stack += (link.__cause__, link.__context__)
        return links

    @pytest.mark.parametrize("draw, error, message", [
        # 3 diseased curves are too few for quad's k + 1
        ("small", InsufficientSampleError,
         "diseased group has 3 curves but the quadratic fit needs at least 15"),
        # the Cholesky failure is chained as the cause
        ("singular", SingularCovarianceError,
         "score covariance of the diseased group is singular; "
         "increase the ridge or reduce the dimension"),
    ])
    def test_the_error_keeps_no_frames_and_reports_as_before(self, draw, error, message):
        if draw == "small":
            spec = ScenarioSpec(name="D20", n_d=3, n_h=60, seed=77, grid_size=40)
            config = RunConfig(scenario=spec, indexes=("quad", "max"), reps=1)
            result = run_replication(config, 0)
            report = run_study(config)
        else:
            config = RunConfig(scenario="file.csv", indexes=("quad", "max"))
            result = evaluate(*singular_pair(), config)
            report = analyze(*singular_pair(), config)
            assert isinstance(result.errors["quad"].__cause__, np.linalg.LinAlgError)
        stored = result.errors["quad"]
        assert type(stored) is error and str(stored) == message
        assert list(result.auc) == ["max"]
        for link in self.chain(stored):
            assert link.__traceback__ is None, type(link).__name__
        assert report.per_index["quad"]["error"] == f"{error.__name__}: {message}"


class TestRunStudy:
    def test_aggregates_mean_and_sample_sd(self):
        config = RunConfig(scenario=small_scenario(), indexes=("integral",), reps=7)
        report = run_study(config)
        values = [run_replication(config, rep).auc["integral"] for rep in range(7)]
        entry = report.per_index["integral"]
        assert entry["mean_auc"] == pytest.approx(np.mean(values), abs=1e-12)
        assert entry["sd_auc"] == pytest.approx(np.std(values, ddof=1), abs=1e-12)
        assert entry["n_ok"] == 7

    def test_reproducible_end_to_end(self):
        config = RunConfig(scenario=small_scenario(), indexes=("linear", "quad"), reps=4)
        first = run_study(config)
        second = run_study(config)
        assert first.per_index == second.per_index

    def test_index_with_all_failures_is_marked_unavailable(self):
        spec = ScenarioSpec(name="D20", n_d=3, n_h=50, seed=5, grid_size=30)
        report = run_study(RunConfig(scenario=spec, indexes=("quad",), reps=3))
        entry = report.per_index["quad"]
        assert entry["mean_auc"] is None
        assert entry["n_ok"] == 0
        assert "error" in entry

    def test_runtime_grows_roughly_linearly_in_reps(self):
        config_small = RunConfig(scenario=small_scenario(), indexes=("integral",), reps=5)
        config_large = dataclasses.replace(config_small, reps=20)
        start = time.perf_counter()
        run_study(config_small)
        t_small = time.perf_counter() - start
        start = time.perf_counter()
        run_study(config_large)
        t_large = time.perf_counter() - start
        assert t_large <= 10.0 * t_small + 0.5

    def test_mean_auc_standard_error_shrinks_with_reps(self):
        # the spread of the reported mean over independent studies falls
        # like 1 / sqrt(reps); the per-replication SD itself does not
        def mean_spread(reps, n_studies=8):
            means = []
            for study in range(n_studies):
                # study seeds spaced beyond reps so the XOR substreams of
                # different studies cannot overlap
                spec = ScenarioSpec(
                    name="P0", n_d=30, n_h=30, seed=(study + 1) << 20, rho=2.0,
                    grid_size=15
                )
                config = RunConfig(scenario=spec, indexes=("integral",), reps=reps)
                means.append(run_study(config).per_index["integral"]["mean_auc"])
            return np.std(means, ddof=1)

        spread_small = mean_spread(50)
        spread_large = mean_spread(800)
        ratio = spread_small / spread_large
        assert 2.0 <= ratio <= 8.0


class TestStudySummary:
    """``_aggregate`` summarizes the indexes that share a success count as the rows of
    one matrix; each entry must equal the one summarized from the index's own vectors."""

    def test_entries_equal_the_per_index_summary_bit_for_bit(self):
        # an index that fails every replication, single rows of 1, 2 and 9 successes,
        # and two rows of 200, past numpy's pairwise-sum block of 128
        successes = {"max": 0, "min": 1, "integral": 2, "meandiff": 9, "linear": 200,
                     "quad": 200}
        rng = np.random.default_rng(38)
        results = [ReplicationResult() for _ in range(200)]
        for name, n_ok in successes.items():
            fits = set(rng.choice(200, n_ok, replace=False).tolist())
            for rep, result in enumerate(results):
                if rep in fits:
                    result.auc[name], result.youden[name] = rng.uniform(size=2).tolist()
                else:
                    result.errors[name] = InsufficientSampleError(f"replication {rep}")
        config = RunConfig(scenario=small_scenario(), reps=200)
        report = harness._aggregate(config, results, 0.0)
        assert list(report.per_index) == list(INDEX_NAMES)
        for name, n_ok in successes.items():
            entry = report.per_index[name]
            assert list(entry.items()) == list(study_entry(results, name).items()), name
            assert entry["n_ok"] == n_ok
        assert report.per_index["min"]["sd_auc"] == 0.0
        assert report.per_index["max"]["error"].startswith("InsufficientSampleError: ")


class TestParallelReplications:
    @pytest.fixture
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        return monkeypatch

    @pytest.mark.parametrize("openblas, omp, helper", [
        (None, None, False),
        ("1", None, True),
        ("2", None, False),
        (None, "1", True),
        (None, "2", False),
        ("2", "1", False),  # OpenBLAS reads its own variable first
        ("1", "4", True),
    ])
    def test_threads_only_when_blas_is_pinned(self, four_cpus, openblas, omp, helper):
        for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is not None:
                four_cpus.setenv(name, value)
        assert _helper._use_helper(200) is helper

    def test_a_helper_needs_two_replications_and_two_cpus(self, four_cpus):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        assert [_helper._use_helper(reps) for reps in (1, 2, 3, 200)] == [False, True, True, True]
        with pytest.MonkeyPatch.context() as patch:  # and a POSIX system, for os.posix_spawn
            patch.setattr(os, "name", "nt")
            assert _helper._use_helper(200) is False
        four_cpus.setattr(os, "sched_getaffinity", lambda pid: {2})
        assert _helper._use_helper(200) is False

    def test_cpu_count_serves_where_affinity_is_missing(self, four_cpus):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        four_cpus.delattr(os, "sched_getaffinity")
        four_cpus.setattr(os, "cpu_count", lambda: 6)
        assert _helper._use_helper(200) is True
        four_cpus.setattr(os, "cpu_count", lambda: None)
        assert _helper._use_helper(200) is False

    @pytest.fixture(scope="class")
    def shim(self, tmp_path_factory):
        """Every helper started in this class is a ``tests/helper_shim.py`` process that
        reads its options from the returned file; the last one is killed at the end."""
        options = tmp_path_factory.mktemp("shim") / "helper.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_helper, "_COMMAND", [sys.executable, str(SHIM), HELPER_SOURCE,
                                                str(options)])
            helper_shim.stop()
            yield options
            helper_shim.stop()

    @pytest.fixture
    def helper(self, shim, monkeypatch, tmp_path):
        """``helper.start(caller=None, wait=True, **options)`` gives the shim helper
        ``options`` and the caller's ``run_replication`` the same wrapping with the
        ``caller`` options.  It keeps a booted helper; any other is replaced, and the
        new one is left to boot in the test's first study if ``wait`` is false.
        ``helper.ran()`` reads the log the two processes share, and ``helper.pid`` is
        the booted helper's pid.  Every study may use the helper."""
        log, caller_options = tmp_path / "ran.jsonl", tmp_path / "caller.json"
        monkeypatch.setattr(_helper, "_use_helper", lambda reps: True)
        state = SimpleNamespace(pid=None, ran=lambda: [
            json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()
        ] if log.exists() else [])

        def start(caller=None, wait=True, **options):
            shim.write_text(json.dumps({"log": str(log), **options}), encoding="utf-8")
            caller_options.write_text(json.dumps({"log": str(log), **(caller or {})}),
                                      encoding="utf-8")
            running = _helper._helper
            if wait and running and running.ready:
                state.pid = running.pid
            else:
                helper_shim.stop()
                if wait:  # its first study runs in the caller alone, so logs nothing
                    state.pid = helper_shim.boot(study_config(reps=2))
            monkeypatch.setattr(harness, "run_replication",
                                helper_shim.recording(str(caller_options), run_replication))

        state.start = start
        return state

    @staticmethod
    def pids(lines, seed=None):
        """Which pid ran each id, from the log lines of the study seeded ``seed``."""
        return {line["id"]: line["pid"] for line in lines
                if seed is None or line["seed"] == seed}

    @pytest.mark.parametrize("allowed", [False, True])
    def test_caller_runs_the_first_half_and_the_helper_the_rest(self, helper, monkeypatch,
                                                               allowed):
        helper.start()
        monkeypatch.setattr(_helper, "_use_helper", lambda reps: allowed)
        assert run_study(study_config(reps=7)).replications == 7
        pids = self.pids(helper.ran())
        assert sorted(pids) == list(range(7))
        assert {pids[rep] for rep in (0, 1, 2)} == {os.getpid()}
        assert {pids[rep] for rep in (3, 4, 5, 6)} == {helper.pid if allowed else os.getpid()}

    def test_a_helper_found_ready_late_takes_half_of_the_ids_that_remain(self, helper,
                                                                         monkeypatch):
        helper.start()
        original, polls = _helper._Helper.poll, []

        def poll(self):  # as if the helper booted while the caller ran ids 0-3
            polls.append(self)
            return len(polls) > 4 and original(self)

        monkeypatch.setattr(_helper._Helper, "poll", poll)
        run_study(study_config(reps=9))
        pids = self.pids(helper.ran())
        assert [pids[rep] for rep in range(9)] == [os.getpid()] * 6 + [helper.pid] * 3

    def test_the_helper_runs_under_the_callers_numpy_error_state_and_warning_filters(
            self, helper):
        helper.start()
        with np.errstate(over="ignore", under="raise", divide="print"), \
                warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            warnings.filterwarnings("ignore", category=DeprecationWarning)
            errors = np.geterr()
            filters = [[f[0], f[2].__name__] for f in warnings.filters[:2]]
            run_study(study_config(reps=4))
        lines = helper.ran()
        assert self.pids(lines) == {0: os.getpid(), 1: os.getpid(), 2: helper.pid, 3: helper.pid}
        assert filters == [["ignore", "DeprecationWarning"], ["error", "UserWarning"]]
        assert [(line["errors"], line["filters"]) for line in lines] == [(errors, filters)] * 4

    @pytest.mark.parametrize("mode", ["print", "ignore"])
    def test_what_the_helper_prints_does_not_reach_its_replies(self, helper, capfd, mode):
        helper.start(noise=True)
        with np.errstate(over=mode):
            report = run_study(study_config(reps=4))
        assert report.replications == 4
        assert set(self.pids(helper.ran()).values()) == {os.getpid(), helper.pid}

    @pytest.mark.parametrize("state", ["call", "log", "local-warning-class", "other-thread"])
    def test_unsupported_caller_state_runs_the_study_serially(self, helper, state, tmp_path):
        release = tmp_path / "release"
        helper.start(hold={"1": str(release)})
        sink = SimpleNamespace(write=lambda message: None)
        local = type("Local", (UserWarning,), {})  # defined here, so it does not pickle
        holder = threading.Thread(target=run_study, args=(study_config(reps=2, seed=5),))
        with contextlib.ExitStack() as stack:
            if state == "call":
                stack.enter_context(np.errstate(over="call", call=lambda kind, flag: None))
            elif state == "log":
                stack.enter_context(np.errstate(all="log", call=sink))
            elif state == "local-warning-class":
                stack.enter_context(warnings.catch_warnings())
                warnings.simplefilter("ignore", local)
            else:  # a study on another thread holds the helper until this study ends
                holder.start()
                stack.callback(holder.join)
                stack.callback(release.touch)  # runs first: the helper's id 1 may end
                deadline = time.monotonic() + 30
                while helper.pid not in self.pids(helper.ran(), seed=5).values():
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            report = run_study(study_config(reps=4))
        assert report.replications == 4
        assert self.pids(helper.ran(), seed=321) == {rep: os.getpid() for rep in range(4)}

    @pytest.mark.parametrize("failing, raised", [
        ({2}, 2),        # only in the caller's half, ids 0-3
        ({7}, 7),        # only in the helper's half, ids 4-8
        ({4, 6}, 4),     # twice in the helper's half
        ({1, 5, 8}, 1),  # in both halves
        ({3, 4}, 3),     # in both halves, on either side of the cut
    ])
    @pytest.mark.parametrize("allowed", [False, True])
    def test_lowest_failing_replication_raises_after_the_helper_ends(
        self, helper, monkeypatch, allowed, failing, raised
    ):
        failures = {str(rep): "ValueError" for rep in failing}
        helper.start(caller={"raise": failures}, **{"raise": failures})
        monkeypatch.setattr(_helper, "_use_helper", lambda reps: allowed)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^replication {raised} failed$"):
            run_study(study_config(reps=9))
        assert threading.active_count() == before
        pids = self.pids(helper.ran())
        assert pids[raised] == (helper.pid if allowed and raised >= 4 else os.getpid())
        # a failure in the helper's share leaves it serving; one in the caller's kills it
        assert (_helper._helper is not None) is (raised >= 4 or not allowed)

    @staticmethod
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    @pytest.mark.parametrize("stop", ["error", "interrupt", "interrupt-while-waiting"])
    def test_an_error_or_interrupt_in_the_caller_kills_the_helper(self, helper, monkeypatch,
                                                                  stop):
        if stop == "interrupt-while-waiting":  # the helper's first id outlasts the alarm
            helper.start(sleep={"3": 60})
            previous = signal.signal(signal.SIGALRM, self.interrupt)
            signal.setitimer(signal.ITIMER_REAL, 0.5)
        else:
            helper.start(caller={"raise": {
                "1": "ValueError" if stop == "error" else "KeyboardInterrupt"}})
        pid, before, began = _helper._helper.pid, threading.active_count(), time.monotonic()
        try:
            with pytest.raises(ValueError if stop == "error" else KeyboardInterrupt):
                run_study(study_config(reps=6))
        finally:
            if stop == "interrupt-while-waiting":
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - began < 30
        assert _helper._helper is None
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(pid, 0)
        assert threading.active_count() == before
        helper.start(wait=False, sleep={"3": 60})  # the caller fails no id now
        fresh = helper_shim.boot(study_config(reps=2, seed=11))
        assert fresh != pid
        assert self.pids(helper.ran(), seed=11) == {0: os.getpid(), 1: os.getpid()}  # cold
        run_study(study_config(reps=2, seed=7))
        assert self.pids(helper.ran(), seed=7) == {0: os.getpid(), 1: fresh}

    def test_a_study_inside_the_helper_runs_there_and_starts_no_helper(self, helper):
        helper.start(nest=True)
        run_study(study_config(reps=4))
        lines = helper.ran()
        inside = [line for line in lines if line["pid"] == helper.pid]
        # ids 2 and 3 each run a 2-replication study of their own, inside the helper
        assert [line["id"] for line in inside] == [2, 0, 1, 3, 0, 1]
        assert not any(line["helper"] for line in inside)

    # last: the helper it leaves never boots, so a test after it would wait for a new one
    def test_a_booting_helper_leaves_every_id_to_the_caller_without_a_wait(self, helper):
        helper.start(wait=False, boot=60)
        began = time.monotonic()
        assert run_study(study_config(reps=6)).replications == 6
        assert time.monotonic() - began < 30
        assert self.pids(helper.ran()) == {rep: os.getpid() for rep in range(6)}
        assert _helper._helper.ready is False

    def test_a_helper_that_cannot_be_spawned_leaves_every_id_to_the_caller(self, helper,
                                                                          monkeypatch):
        helper.start(wait=False)

        def refuse(*args, **kwargs):
            raise BlockingIOError(11, "Resource temporarily unavailable")  # e.g. RLIMIT_NPROC

        monkeypatch.setattr(os, "posix_spawn", refuse)
        assert run_study(study_config(reps=4)).replications == 4
        assert self.pids(helper.ran()) == {rep: os.getpid() for rep in range(4)}
        assert _helper._helper is None


class TestAnalyze:
    def test_null_dataset_keeps_linear_indexes_near_half(self, tmp_path):
        grid = make_uniform_grid(30)
        rng = np.random.default_rng(9)
        d = sample_gaussian(ProcessSpec("brownian"), grid, 20, rng)
        h = sample_gaussian(ProcessSpec("brownian"), grid, 20, rng)
        config = RunConfig(
            scenario="null.csv", indexes=("integral", "meandiff", "linear"), reps=1
        )
        report = analyze(d, h, config)
        for name in ("integral", "meandiff", "linear"):
            assert report.per_index[name]["mean_auc"] == pytest.approx(0.5, abs=0.15)

    def test_covariance_gap_favors_the_quadratic_rule(self):
        # equal means, doubled diseased covariance, unbalanced sizes
        spec = ScenarioSpec(
            name="P0", n_d=27, n_h=243, seed=31, rho=2.0, process="expvar", grid_size=100
        )
        from funcroc import generate_scenario

        d, h = generate_scenario(spec)
        config = RunConfig(scenario="surrogate.csv", indexes=("linear", "quad"), reps=1)
        report = analyze(d, h, config)
        assert report.per_index["quad"]["mean_auc"] > report.per_index["linear"]["mean_auc"]

    def test_a_pair_on_two_grids_is_rejected_whole(self):
        rng = np.random.default_rng(4)
        d = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(10), 20, rng)
        h = sample_gaussian(ProcessSpec("brownian"), make_uniform_grid(12), 20, rng)
        config = RunConfig(scenario="pair.csv")
        for run in (evaluate, analyze):
            with pytest.raises(GridMismatchError, match="different grids"):
                run(d, h, config)

    def test_roc_export_has_one_sequence_per_index(self):
        spec = small_scenario()
        from funcroc import generate_scenario

        d, h = generate_scenario(spec)
        config = RunConfig(
            scenario="file.csv", indexes=("max", "integral"), reps=1, keep_roc=True
        )
        report = analyze(d, h, config)
        assert set(report.roc_samples) == {"max", "integral"}
        for sequences in report.roc_samples.values():
            assert len(sequences) == 1
            assert len(sequences[0]) == 101

    def test_file_config_study_is_the_analysis_of_the_ingested_file(self, tmp_path):
        from funcroc import generate_scenario

        d, h = generate_scenario(small_scenario())
        path = tmp_path / "curves.csv"
        write_curve_file(path, d.grid.points, [("D", row) for row in d.values]
                         + [("H", row) for row in h.values])
        config = RunConfig(scenario=path, reps=1, penalty_lambda=0.5, keep_roc=True)
        expected = analyze(*ingest_curves(path), config)
        report = run_study(config)
        assert report.replications == 1 and set(report.per_index) == set(config.indexes)
        assert dataclasses.replace(report, elapsed_seconds=0.0) == dataclasses.replace(
            expected, elapsed_seconds=0.0
        )

    def test_roc_export_labels_rows_with_the_report_p_grid(self):
        from funcroc import generate_scenario

        d, h = generate_scenario(small_scenario())
        config = RunConfig(
            scenario="file.csv", indexes=("integral",), reps=1, keep_roc=True, p_grid_size=11
        )
        rows = roc_export_rows(analyze(d, h, config))
        assert len(rows) == 11
        assert [p for _, p, _ in rows] == pytest.approx(np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_tiny_curves_end_in_typed_fit_failures(self, scale):
        # the linear direction's norm and the score-covariance inverses overflow;
        # both fits must fail typed so the other indexes are still reported
        d, h = generate_scenario(
            ScenarioSpec(name="P1", n_d=30, n_h=30, seed=3, rho=1.0, grid_size=20).substream(0)
        )
        config = RunConfig(scenario="file.csv")
        unscaled = analyze(d, h, config).per_index
        with np.errstate(over="ignore"):
            scaled = analyze(*(FunctionalSample(s.grid, s.values * scale)
                               for s in (d, h)), config).per_index
        for name in ("max", "min", "integral", "meandiff"):
            assert scaled[name]["mean_auc"] == unscaled[name]["mean_auc"], name
        assert scaled["linear"]["error"].startswith("DegenerateDirectionError: ")
        assert scaled["quad"]["error"].startswith("SingularCovarianceError: ")

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_tiny_curves_fail_without_runtime_warnings(self, scale):
        # the overflows behind both typed failures are expected, so nothing is printed
        d, h = generate_scenario(
            ScenarioSpec(name="P1", n_d=30, n_h=30, seed=3, rho=1.0, grid_size=20).substream(0)
        )
        scaled = [FunctionalSample(s.grid, s.values * scale) for s in (d, h)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(*scaled, RunConfig(scenario="file.csv"))
        assert report.per_index["linear"]["error"].startswith("DegenerateDirectionError: ")
        assert report.per_index["quad"]["error"].startswith("SingularCovarianceError: ")

    def test_overflowing_group_means_end_in_typed_fit_failures(self):
        # the group means overflow; the fits that read them fail typed and silently,
        # and the parameter-free indexes keep the unscaled AUCs
        d, h = generate_scenario(
            ScenarioSpec(name="P1", n_d=30, n_h=30, seed=3, rho=1.0, grid_size=20).substream(0)
        )
        config = RunConfig(scenario="file.csv")
        unscaled = analyze(d, h, config).per_index
        scaled = [FunctionalSample(s.grid, s.values * 1e307) for s in (d, h)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(*scaled, config).per_index
        for name in ("max", "min", "integral"):
            assert report[name]["mean_auc"] == unscaled[name]["mean_auc"], name
        for name in ("meandiff", "linear", "quad"):
            assert report[name]["error"].startswith("NumericalDegeneracyError: "), name

    def test_an_overflowing_mean_gap_fails_meandiff_typed(self):
        # both group means are finite but their difference overflows
        grid = make_uniform_grid(20)
        d = FunctionalSample(grid, [1.5e308 * (0.5 + 0.5 * grid.points)])
        h = FunctionalSample(grid, [-1.5e308 * (0.5 + 0.4 * grid.points)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(d, h, RunConfig(scenario="file.csv")).per_index
        # every diseased value lies above every healthy one
        for name in ("max", "min", "integral"):
            assert report[name]["mean_auc"] == 1.0, name
        assert report["meandiff"]["error"].startswith("DegenerateDirectionError: ")


class TestIngestCurves:
    def test_toy_file_groups_and_grid(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_curve_file(
            path,
            [0.25, 0.5, 1.0],
            [("D", [1.0, 2.0, 3.0]), ("H", [0.0, 0.0, 0.0]), ("D", [2.0, 1.0, 0.5])],
        )
        d, h = ingest_curves(path)
        assert (d.n, h.n) == (2, 1)
        assert np.allclose(d.grid.points, [0.25, 0.5, 1.0])

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_curve_file(path, [0.5, 1.0], [("D", [1.0, "nan"]), ("H", [0.0, 0.0])])
        with pytest.raises(CurveParseError, match="line 2.*column 3"):
            ingest_curves(path)

    def test_ragged_row_is_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,0.5,1.0\nD,1.0,2.0\nH,3.0\n", encoding="utf-8")
        with pytest.raises(CurveParseError, match="line 3"):
            ingest_curves(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("label,0.5,1.0\nD,1,2\n\nH,1,2\nH,1,oops\n", encoding="utf-8")
        with pytest.raises(CurveParseError, match="line 5") as excinfo:
            ingest_curves(path)
        assert excinfo.value.line == 5

    def test_unknown_label_is_rejected(self, tmp_path):
        path = tmp_path / "label.csv"
        write_curve_file(path, [0.5, 1.0], [("X", [1.0, 2.0]), ("H", [0.0, 0.0])])
        with pytest.raises(CurveParseError, match="line 2"):
            ingest_curves(path)

    def test_malformed_header_is_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("time,0.5,1.0\nD,1,2\n", encoding="utf-8")
        with pytest.raises(CurveParseError, match="line 1"):
            ingest_curves(path)

    def test_missing_group_is_rejected(self, tmp_path):
        path = tmp_path / "onegroup.csv"
        write_curve_file(path, [0.5, 1.0], [("D", [1.0, 2.0])])
        with pytest.raises(CurveParseError, match="'H'"):
            ingest_curves(path)

    def test_crlf_line_endings_are_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        text = "label,0.5,1.0\r\nD,1.0,2.0\r\nH,0.0,0.0\r\n"
        path.write_bytes(text.encode("utf-8"))
        d, h = ingest_curves(path)
        assert (d.n, h.n) == (1, 1)

    def test_wide_unbalanced_file(self, tmp_path):
        # shaped like a 270-subject screening panel on 1001 grid points
        rng = np.random.default_rng(12)
        points = np.linspace(0, 1, 1001)
        path = tmp_path / "wide.csv"
        rows = [("D", rng.standard_normal(1001).round(4)) for _ in range(27)]
        rows += [("H", rng.standard_normal(1001).round(4)) for _ in range(243)]
        write_curve_file(path, points, rows)
        d, h = ingest_curves(path)
        assert (d.n, h.n) == (27, 243)


class TestEmitReport:
    def make_report(self, indexes=("max", "integral"), reps=3):
        config = RunConfig(scenario=small_scenario(), indexes=indexes, reps=reps)
        return run_study(config)

    def test_empty_index_set_gives_header_only_table(self):
        config = RunConfig(scenario=small_scenario(), indexes=("max",), reps=2)
        report = run_study(config)
        report.per_index = {}
        text = emit_report(report, "table-text").decode("utf-8")
        assert "study report" in text
        assert "max" not in text.splitlines()[5:]

    def test_json_round_trips_to_equal_values(self):
        report = self.make_report()
        payload = json.loads(emit_report(report, "machine-readable"))
        assert payload["per_index"] == report.per_index
        assert payload["seed"] == report.seed
        assert payload["elapsed_seconds"] == report.elapsed_seconds
        assert payload["config"] == report.config

    def test_unavailable_index_renders_a_note(self):
        spec = ScenarioSpec(name="D20", n_d=3, n_h=50, seed=5, grid_size=30)
        report = run_study(RunConfig(scenario=spec, indexes=("quad",), reps=2))
        text = emit_report(report, "table-text").decode("utf-8")
        assert "unavailable" in text

    def test_unknown_format_rejected(self):
        report = self.make_report()
        with pytest.raises(ValueError):
            emit_report(report, "yaml")

    def test_text_table_matches_golden_file(self):
        config = RunConfig(
            scenario=ScenarioSpec(
                name="P1", n_d=25, n_h=25, seed=12345, rho=1.0, grid_size=20
            ),
            reps=3,
        )
        report = run_study(config)
        report.elapsed_seconds = 0.0  # wall time is not part of the fixture
        golden = (DATA_DIR / "golden_report.txt").read_bytes()
        assert emit_report(report, "table-text") == golden
