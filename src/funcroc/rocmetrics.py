"""Empirical ROC curve, AUC and Youden index estimators.

All three are plug-in estimators built from the empirical distribution and
quantile functions of the scores, so they depend on the data only through
ranks: any strictly increasing transformation of the scores leaves them
unchanged.  Studies, ``analyze`` and the ``roc`` command evaluate through
``harness.evaluate``, which scores the k fitted indexes into one score
matrix per group, checks each matrix as ``ScoreSample`` checks one vector,
and summarizes the k rows at once with ``summarize_sorted``.  ``roc_curve``,
``auc`` and ``youden`` are its checked one-row calls on a ``ScoreSample``.  The
empirical distribution and quantile functions are not in the package: they are
the test references ``ecdf`` and ``equantile``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import FunctionalSample, frozen_finite
from .indexes import DiscriminantIndex, index_scores

__all__ = [
    "ScoreSample",
    "RocSummary",
    "RocRows",
    "roc_curve",
    "auc",
    "youden",
    "score_sample",
    "summarize_sorted",
    "default_p_grid",
]


@dataclass(frozen=True, eq=False)
class ScoreSample:
    """Real-valued scores of the diseased and healthy groups."""

    diseased: np.ndarray
    healthy: np.ndarray

    def __post_init__(self):
        for name in ("diseased", "healthy"):
            values = frozen_finite(getattr(self, name), f"{name} scores")
            if values.ndim != 1 or values.size == 0:
                raise ValueError(f"{name} scores must form a nonempty vector")
            object.__setattr__(self, name, values)


@dataclass(frozen=True, eq=False)
class RocSummary:
    """A sampled ROC curve together with its AUC and Youden summaries."""

    p_grid: np.ndarray
    roc_values: np.ndarray
    auc: float
    youden: float
    youden_threshold: float


@dataclass(frozen=True, eq=False)
class RocRows:
    """ROC values (k, P) and the k AUCs, Youden values and thresholds of k
    score rows; see ``summarize_sorted``."""

    auc: np.ndarray
    youden: np.ndarray
    youden_threshold: np.ndarray
    roc_values: np.ndarray


def default_p_grid(size: int = 101) -> np.ndarray:
    """Equally spaced evaluation probabilities on [0, 1]."""
    if size < 2:
        raise ValueError("p grid needs at least two points")
    return np.linspace(0.0, 1.0, size)


_NO_P = np.empty(0)  # summaries without ROC values


def summarize_sorted(
    diseased: np.ndarray, healthy: np.ndarray, p_grid: np.ndarray
) -> RocRows:
    """ROC values, AUC and Youden index of k score rows at once.

    ``diseased`` (k, n_D) and ``healthy`` (k, n_H) hold each row's group
    scores in ascending order, and ``p_grid`` is a valid probability grid
    (see ``roc_curve``); neither is checked.  Row r gives, bit for bit, what
    ``roc_curve`` gives for the scores of row r.  All three summaries are
    read off one count per healthy score y: the number c(y) of diseased
    scores at or below y.
    """
    k, n_d = diseased.shape
    n_h = healthy.shape[1]
    # c(y) = #{diseased <= y} and #{healthy <= y}, row by row
    below_d = np.array([d.searchsorted(h, side="right") for d, h in zip(diseased, healthy)])
    below_h = np.array([h.searchsorted(h, side="right") for h in healthy])

    # A pair has a strictly larger diseased score exactly when c(y) misses it,
    # so the double-sum count is n_D n_H - sum c(y), an exact integer.
    pairs = n_d * n_h
    auc_values = (pairs - below_d.sum(axis=1)) / pairs

    # Youden: F_H(c) - F_D(c), maximized over the healthy scores only.  At a
    # score held by diseased scores alone, F_H keeps its value at the next
    # lower score while F_D grows, so the gap is strictly below the gap there,
    # or below zero if no score is lower; the gap at the largest healthy score
    # is nonnegative.  So the maximum and its smallest threshold always fall
    # on a healthy score, and argmax takes the first, smallest, one.
    gaps = below_h / n_h - below_d / n_d
    best = np.argmax(gaps, axis=1)
    rows = np.arange(k)

    # ROC: 1 - F_D at the healthy score of rank ceil(n_H (1 - p)), which c gives;
    # a hair is subtracted before ceil so n_H (1 - p) landing on an integer is not bumped up
    endpoints = np.where(p_grid < 1.0, 0.0, 1.0)  # the endpoint convention
    values = np.repeat(endpoints[None, :], k, axis=0)
    interior = (p_grid > 0.0) & (p_grid < 1.0)
    ranks = np.clip(np.ceil(n_h * (1.0 - p_grid[interior]) - 1e-9).astype(int), 1, n_h)
    values[:, interior] = 1.0 - below_d[:, ranks - 1] / n_d
    return RocRows(
        auc=auc_values,
        youden=gaps[rows, best],
        youden_threshold=healthy[rows, best],
        roc_values=values,
    )


def _summarize(s: ScoreSample, p_grid: np.ndarray) -> RocRows:
    """The one-row summary of a score sample; sorts each group once."""
    return summarize_sorted(np.sort(s.diseased)[None, :], np.sort(s.healthy)[None, :], p_grid)


def auc(s: ScoreSample) -> float:
    """Empirical AUC: the proportion of (diseased, healthy) pairs with a
    strictly larger diseased score.

    Computed through sorted ranks in O((n_D + n_H) log) time; the result is
    exactly the double-sum proportion, with ties contributing zero.
    """
    return float(_summarize(s, _NO_P).auc[0])


def youden(s: ScoreSample) -> tuple[float, float]:
    """Youden index and its achieving threshold.

    The value is the maximum of F_H(c) - F_D(c) over all candidate
    thresholds c among the observed scores, which coincides with the
    supremum over p in (0, 1) of ROC(p) - p.  The smallest achieving
    threshold is returned on ties.
    """
    rows = _summarize(s, _NO_P)
    return float(rows.youden[0]), float(rows.youden_threshold[0])


def roc_curve(s: ScoreSample, p_grid: np.ndarray | None = None) -> RocSummary:
    """Plug-in ROC curve 1 - F_D(F_H^{-1}(1 - p)) on a probability grid.

    The estimator is defined on (0, 1); the endpoints are set to 0 and 1 by
    convention.  The returned summary also carries ``auc`` and ``youden``
    computed from the same scores.
    """
    p_grid = np.asarray(default_p_grid() if p_grid is None else p_grid, dtype=float)
    if p_grid.ndim != 1 or p_grid.size < 1:
        raise ValueError("p_grid must be a nonempty vector")
    if not np.all((p_grid >= 0.0) & (p_grid <= 1.0)) or np.any(np.diff(p_grid) <= 0):
        raise ValueError("p_grid must be increasing within [0, 1]")

    rows = _summarize(s, p_grid)
    return RocSummary(
        p_grid=p_grid,
        roc_values=rows.roc_values[0],
        auc=float(rows.auc[0]),
        youden=float(rows.youden[0]),
        youden_threshold=float(rows.youden_threshold[0]),
    )


def score_sample(
    idx: DiscriminantIndex, d: FunctionalSample, h: FunctionalSample
) -> ScoreSample:
    """Apply a discriminant index to both samples, curve by curve."""
    return ScoreSample(diseased=index_scores(idx, d), healthy=index_scores(idx, h))
