"""Exact invariances of every index's ROC summaries under relabelling, rescaling and shifts.

A seeded draw of every catalog entry (P0 and P1 with both processes, and the
eight fixed-process entries) runs through ``evaluate`` with all six indexes,
on the full basis route (N >= m curves) and on the Gram route (N < m).  The
empirical ROC summaries read the scores through their ranks alone.  Permuting
the curves within each group, scaling every curve by 2^10, 2^-10 or 3, or
adding 1e3 to it can move a fitted rule by rounding only, so the AUCs, Youden
values and ROC values must stay exactly equal.  Swapping the groups negates
the direction of the fitted rules (meandiff, linear, quad), which keeps the
pair count n_D n_H AUC, and leaves the scores of the fixed rules (max, min,
integral) in place, which complements it.

A shift by 1e6 is left out: it costs curves of unit size about 20 of their 53
bits, and on a C10 60+50 m=40 draw it moved ``quad`` by one pair in 3,000.
Exact equality cannot hold there, and a tolerance would have to be derived
from the bits lost, not fitted to the one case seen.
"""

import numpy as np
import pytest

from funcroc import FunctionalSample, RunConfig, ScenarioSpec, evaluate, generate_scenario

SCENARIOS = (  # P0 and P1 default to the brownian process
    *(("P1", 1.0, process) for process in (None, "expvar")),
    *(("P0", 2.0, process) for process in (None, "expvar")),
    *((name, None, None) for name in ("C10", "C11", "C20", "C21", "D10", "D11", "D20", "D21")),
)
ROUTES = {"full": (30, 40), "gram": (20, 60)}  # curves per group, grid size
CASES = [pytest.param(name, rho, process, route,
                      id="-".join(filter(None, (name, process, route))))
         for name, rho, process in SCENARIOS for route in ROUTES]
FITTED = ("meandiff", "linear", "quad")
FIXED = ("max", "min", "integral")


def draw(name, rho, process, route):
    n, m = ROUTES[route]
    spec = ScenarioSpec(name=name, n_d=n, n_h=n, seed=11, rho=rho, process=process, grid_size=m)
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


@pytest.mark.parametrize("name, rho, process, route", CASES)
def test_permuting_the_curves_within_each_group(name, rho, process, route):
    d, h, config = draw(name, rho, process, route)
    rng = np.random.default_rng(5)
    moved = (FunctionalSample(s.grid, s.values[rng.permutation(s.n)]) for s in (d, h))
    assert_same_summaries(summaries(d, h, config), summaries(*moved, config))


@pytest.mark.parametrize("scale, shift", [(2.0**10, 0.0), (2.0**-10, 0.0), (3.0, 0.0), (1.0, 1e3)],
                         ids=["x2^10", "x2^-10", "x3", "+1e3"])
@pytest.mark.parametrize("name, rho, process, route", CASES)
def test_rescaling_and_shifting_the_curves(name, rho, process, route, scale, shift):
    d, h, config = draw(name, rho, process, route)
    moved = (FunctionalSample(s.grid, s.values * scale + shift) for s in (d, h))
    assert_same_summaries(summaries(d, h, config), summaries(*moved, config))


@pytest.mark.parametrize("name, rho, process, route", CASES)
def test_swapping_the_groups(name, rho, process, route):
    d, h, config = draw(name, rho, process, route)
    pairs = d.n * h.n
    before = {index: round(auc * pairs) for index, auc in summaries(d, h, config).auc.items()}
    after = {index: round(auc * pairs) for index, auc in summaries(h, d, config).auc.items()}
    for index in FITTED:
        assert after[index] == before[index]
    for index in FIXED:
        assert after[index] == pairs - before[index]
