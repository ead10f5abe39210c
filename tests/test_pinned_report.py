"""Pinned study summaries: refactors must reproduce them.

``tests/data/pinned_per_index.json`` holds ``per_index`` of ``run_study``
for the configs below, computed with one BLAS thread.  Numbers are
compared at a relative tolerance rather than byte for byte, so another
BLAS build cannot fail the test on last-bit rounding; counts and error
strings must match exactly.  The counting tests check that one draw
shares a single pair of group means and a single pooled eigensystem among
its fitted indexes.

Regenerate the fixture (only when a change of numbers is intended) with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_pinned_report.py``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from funcroc import RunConfig, ScenarioSpec, indexes, run_replication, run_study

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
    """Record every call the fitters make to the named estimation function."""
    calls = []
    original = getattr(indexes, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(indexes, name, counting)
    return calls


def test_one_draw_decomposes_the_pooled_covariance_once(monkeypatch):
    eigen = _count_calls(monkeypatch, "eigendecompose")
    covariance = _count_calls(monkeypatch, "sample_covariance")
    result = run_replication(CONFIGS["P1-25+25-m20-lambda0.5"], 0)
    assert set(result.auc) == {"max", "min", "integral", "meandiff", "linear", "quad"}
    assert len(eigen) == 1
    assert len(covariance) == 2


def test_one_draw_computes_the_group_means_once(monkeypatch):
    means = _count_calls(monkeypatch, "sample_mean")
    result = run_replication(CONFIGS["P1-25+25-m20-lambda0.5"], 0)
    assert set(result.auc) == {"max", "min", "integral", "meandiff", "linear", "quad"}
    assert len(means) == 2


def test_parameter_free_draw_computes_no_covariance(monkeypatch):
    eigen = _count_calls(monkeypatch, "eigendecompose")
    covariance = _count_calls(monkeypatch, "sample_covariance")
    config = dataclasses.replace(
        CONFIGS["P1-25+25-m20-lambda0"], indexes=("max", "min", "integral")
    )
    result = run_replication(config, 0)
    assert set(result.auc) == {"max", "min", "integral"}
    assert covariance == []
    assert eigen == []


if __name__ == "__main__":
    pinned = {label: run_study(config).per_index for label, config in CONFIGS.items()}
    FIXTURE.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
