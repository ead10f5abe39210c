"""``summarize_sorted`` against brute-force definitions and ``roc_curve``."""

import numpy as np
import pytest

from funcroc import ScoreSample, default_p_grid, roc_curve, summarize_sorted
from reference import ecdf, equantile


def random_rows(rng):
    """k rows of diseased and healthy scores, tie-heavy integers half of the time.

    Group sizes are below 10 half of the time, where several healthy scores
    often share the largest Youden gap.
    """
    k = int(rng.integers(1, 7))
    n_d, n_h = (int(rng.integers(1, rng.choice([10, 401]))) for _ in range(2))
    if rng.random() < 0.5:
        top = int(rng.integers(1, 10))
        return (rng.integers(0, top, (k, n_d)).astype(float),
                rng.integers(0, top, (k, n_h)).astype(float))
    return rng.normal(0.4, 1.0, (k, n_d)), rng.normal(0.0, 1.0, (k, n_h))


def brute_force(d, h, p_grid):
    """AUC, Youden value and threshold, and ROC values from their definitions."""
    auc = np.count_nonzero(d[:, None] > h[None, :]) / (d.size * h.size)
    candidates = np.unique(np.concatenate([d, h]))
    gaps = ecdf(h, candidates) - ecdf(d, candidates)
    best = int(np.argmax(gaps))  # the smallest threshold reaching the maximum
    roc = [p if p in (0.0, 1.0) else 1.0 - ecdf(d, equantile(h, 1.0 - p)) for p in p_grid]
    return auc, float(gaps[best]), float(candidates[best]), np.array(roc)


@pytest.mark.parametrize("seed", range(12))
def test_rows_match_the_definitions_and_the_one_row_path(seed):
    rng = np.random.default_rng(1000 + seed)
    p_grid = default_p_grid(int(rng.choice([2, 11, 101])))
    for _ in range(4):
        d, h = random_rows(rng)
        sorted_d, sorted_h = np.sort(d, axis=1), np.sort(h, axis=1)
        rows = summarize_sorted(sorted_d, sorted_h, p_grid)
        swapped = summarize_sorted(sorted_h, sorted_d, p_grid)
        assert rows.roc_values.shape == (d.shape[0], p_grid.size)
        for r in range(d.shape[0]):
            auc, value, threshold, roc = brute_force(d[r], h[r], p_grid)
            assert rows.auc[r] == auc
            assert (rows.youden[r], rows.youden_threshold[r]) == (value, threshold)
            assert np.array_equal(rows.roc_values[r], roc)
            scores, flipped = ScoreSample(d[r], h[r]), ScoreSample(h[r], d[r])
            for got, summary in ((rows, roc_curve(scores, p_grid)),
                                 (swapped, roc_curve(flipped, p_grid))):
                assert got.auc[r] == summary.auc
                assert got.youden[r] == summary.youden
                assert got.youden_threshold[r] == summary.youden_threshold
                assert np.array_equal(got.roc_values[r], summary.roc_values)


def test_single_scores_and_an_interior_only_grid():
    rows = summarize_sorted(np.array([[2.0], [1.0]]), np.array([[1.0], [1.0]]),
                            np.array([0.25, 0.5]))
    assert rows.auc.tolist() == [1.0, 0.0]
    assert rows.youden.tolist() == [1.0, 0.0]
    assert rows.youden_threshold.tolist() == [1.0, 1.0]
    assert rows.roc_values.tolist() == [[1.0, 1.0], [0.0, 0.0]]
