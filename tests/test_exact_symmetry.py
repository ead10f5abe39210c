"""Every symmetric matrix a fit builds is exactly symmetric, entry for entry.

No fit averages a matrix with its transpose: ``X'X`` and ``Z Z'`` are mirrored
BLAS syrk products, and sums, differences, scalar multiples and entrywise
products of exactly symmetric matrices stay exactly symmetric.  Only
``eigendecompose``, which takes a kernel from outside, averages.  Each draw
is checked on the full basis route (N >= m curves) and on the Gram route
(N < m), with a roughness penalty and a ridge.
"""

import numpy as np
import pytest

from funcroc import (
    FitContext,
    ScenarioSpec,
    fit_optimal_linear,
    fit_quadratic,
    generate_scenario,
    sample_covariance,
    second_difference_penalty,
)
from funcroc import estimation, indexes

ROUTES = {"full": (30, 40), "gram": (20, 60)}  # curves per group, grid size


def assert_exactly_symmetric(matrix):
    assert matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1] > 1
    assert np.array_equal(matrix, matrix.T)


@pytest.mark.parametrize("route", ROUTES)
def test_every_fitted_matrix_is_exactly_symmetric(route, monkeypatch):
    n, m = ROUTES[route]
    d, h = generate_scenario(ScenarioSpec(name="P1", n_d=n, n_h=n, seed=8, rho=2.0,
                                          grid_size=m))
    captured = {"eigh": [], "weighted": [], "solve": []}
    real_eigh, real_weighted = np.linalg.eigh, estimation._weighted_eigensystem
    real_solve = indexes.spd_solve

    def eigh(matrix, *args, **kwargs):
        captured["eigh"].append(matrix)
        return real_eigh(matrix, *args, **kwargs)

    def weighted(grid, symmetrized, count):
        captured["weighted"].append(symmetrized)
        return real_weighted(grid, symmetrized, count)

    def solve(matrix, rhs, error):
        captured["solve"].append(matrix)
        return real_solve(matrix, rhs, error)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(estimation, "_weighted_eigensystem", weighted)
    monkeypatch.setattr(indexes, "spd_solve", solve)

    ctx = FitContext(d, h)
    ctx.basis
    (pooled,) = captured["eigh"]  # W^{1/2} K W^{1/2} (full route) or the Gram matrix Z Z'
    if route == "full":
        (symmetrized,) = captured["weighted"]
        assert symmetrized is pooled
    else:
        assert not captured["weighted"]
    assert_exactly_symmetric(pooled)

    k, _, covariances = ctx.moments(0.95)
    assert k > 1
    for covariance in covariances:
        assert_exactly_symmetric(covariance)
    assert_exactly_symmetric(second_difference_penalty(ctx.basis, k))

    fit_optimal_linear(ctx, var_fraction=0.95, penalty_lambda=0.5)
    assert len(captured["solve"]) == 1
    assert_exactly_symmetric(captured["solve"][0])
    assert_exactly_symmetric(fit_quadratic(ctx, var_fraction=0.95, ridge=0.1).lambda_mat)

    for sample in (d, h):
        assert_exactly_symmetric(sample_covariance(sample).matrix)
