"""Exact invariances of every index's ROC summaries under relabelling and rescaling.

Each seeded draw runs through ``evaluate`` with all six indexes, on the full
basis route (N >= m curves) and on the Gram route (N < m).  The empirical ROC
summaries read the scores through their ranks alone.  Permuting the curves
within each group, or scaling every curve by a power of two, can move a fitted
rule by rounding only, so the AUCs, Youden values and ROC values must stay
exactly equal.  Swapping the groups negates the direction of the fitted rules
(meandiff, linear, quad), which keeps the pair count n_D n_H AUC, and leaves the
scores of the fixed rules (max, min, integral) in place, which complements it.
"""

import numpy as np
import pytest

from funcroc import FunctionalSample, RunConfig, ScenarioSpec, evaluate, generate_scenario

SCENARIOS = (("P1", 1.0), ("P0", 2.0), ("C20", None), ("D20", None), ("D21", None))
ROUTES = {"full": (30, 40), "gram": (20, 60)}  # curves per group, grid size
CASES = [pytest.param(name, rho, route, id=f"{name}-{route}")
         for name, rho in SCENARIOS for route in ROUTES]
FITTED = ("meandiff", "linear", "quad")
FIXED = ("max", "min", "integral")


def draw(name, rho, route):
    n, m = ROUTES[route]
    spec = ScenarioSpec(name=name, n_d=n, n_h=n, seed=11, rho=rho, grid_size=m)
    return (*generate_scenario(spec), RunConfig(scenario=spec, keep_roc=True))


def summaries(d, h, config):
    """``evaluate`` of the pair, which must fit every index."""
    result = evaluate(d, h, config)
    assert not result.errors
    assert set(result.auc) == set(FITTED + FIXED)
    return result


def assert_same_summaries(a, b):
    assert a.auc == b.auc
    assert a.youden == b.youden
    assert a.roc_values.keys() == b.roc_values.keys()
    for name, values in a.roc_values.items():
        assert np.array_equal(values, b.roc_values[name])


@pytest.mark.parametrize("name, rho, route", CASES)
def test_permuting_the_curves_within_each_group(name, rho, route):
    d, h, config = draw(name, rho, route)
    rng = np.random.default_rng(5)
    moved = (FunctionalSample(s.grid, s.values[rng.permutation(s.n)]) for s in (d, h))
    assert_same_summaries(summaries(d, h, config), summaries(*moved, config))


@pytest.mark.parametrize("exponent", [10, -10])
@pytest.mark.parametrize("name, rho, route", CASES)
def test_scaling_the_curves_by_a_power_of_two(name, rho, route, exponent):
    d, h, config = draw(name, rho, route)
    scaled = (FunctionalSample(s.grid, s.values * 2.0**exponent) for s in (d, h))
    assert_same_summaries(summaries(d, h, config), summaries(*scaled, config))


@pytest.mark.parametrize("name, rho, route", CASES)
def test_swapping_the_groups(name, rho, route):
    d, h, config = draw(name, rho, route)
    pairs = d.n * h.n
    before = {index: round(auc * pairs) for index, auc in summaries(d, h, config).auc.items()}
    after = {index: round(auc * pairs) for index, auc in summaries(h, d, config).auc.items()}
    for index in FITTED:
        assert after[index] == before[index]
    for index in FIXED:
        assert after[index] == pairs - before[index]
