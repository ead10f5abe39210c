"""Empirical ROC curve, AUC and Youden index estimators.

All three are plug-in estimators built from the empirical distribution and
quantile functions of the scores, so they depend on the data only through
ranks: any strictly increasing transformation of the scores leaves them
unchanged.  Each group is sorted once per ``ScoreSample``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import FunctionalSample
from .indexes import DiscriminantIndex, index_scores

__all__ = [
    "ScoreSample",
    "RocSummary",
    "ecdf",
    "equantile",
    "roc_curve",
    "auc",
    "youden",
    "score_sample",
    "default_p_grid",
]


@dataclass(frozen=True)
class ScoreSample:
    """Real-valued scores of the diseased and healthy groups."""

    diseased: np.ndarray
    healthy: np.ndarray

    def __post_init__(self):
        for name in ("diseased", "healthy"):
            values = np.array(getattr(self, name), dtype=float, copy=True)
            if values.ndim != 1 or values.size == 0:
                raise ValueError(f"{name} scores must form a nonempty vector")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} scores must be finite")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def swapped(self) -> "ScoreSample":
        """Scores with the group roles interchanged.

        Shares this sample's validated read-only arrays, and its sorted
        groups once they exist, so nothing is copied or sorted again.
        """
        other = object.__new__(ScoreSample)
        other.__dict__.update(diseased=self.healthy, healthy=self.diseased)
        if "_sorted" in self.__dict__:
            other.__dict__["_sorted"] = self._sorted[::-1]
        return other

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Diseased and healthy scores in ascending order."""
        return np.sort(self.diseased), np.sort(self.healthy)


@dataclass(frozen=True)
class RocSummary:
    """A sampled ROC curve together with its AUC and Youden summaries."""

    p_grid: np.ndarray
    roc_values: np.ndarray
    auc: float
    youden: float
    youden_threshold: float


def _cdf(ordered: np.ndarray, t):
    """(1/n) #{i : y_i <= t} for ascending scores, elementwise in t."""
    return np.searchsorted(ordered, t, side="right") / ordered.size


def _quantile(ordered: np.ndarray, p):
    """The ceil(n p)-th order statistic of ascending scores, elementwise in p."""
    n = ordered.size
    # subtract a hair before ceil so n*p landing on an integer is not bumped up
    ranks = np.clip(np.ceil(n * np.asarray(p) - 1e-9).astype(int), 1, n)
    return ordered[ranks - 1]


def ecdf(sample, t):
    """Empirical distribution function (1/n) #{i : y_i <= t}.

    ``t`` may be a scalar or an array; the return type matches.
    """
    values = np.asarray(sample, dtype=float)
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    result = _cdf(np.sort(values), t)
    return float(result) if np.isscalar(t) else result


def equantile(sample, p: float) -> float:
    """Generalized inverse of the empirical distribution at p in (0, 1].

    Returns the ceil(n p)-th order statistic.
    """
    values = np.asarray(sample, dtype=float)
    if values.size == 0:
        raise ValueError("sample must be nonempty")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    return float(_quantile(np.sort(values), p))


def default_p_grid(size: int = 101) -> np.ndarray:
    """Equally spaced evaluation probabilities on [0, 1]."""
    if size < 2:
        raise ValueError("p grid needs at least two points")
    return np.linspace(0.0, 1.0, size)


def auc(s: ScoreSample) -> float:
    """Empirical AUC: the proportion of (diseased, healthy) pairs with a
    strictly larger diseased score.

    Computed through sorted ranks in O((n_D + n_H) log) time; the result is
    exactly the double-sum proportion, with ties contributing zero.
    """
    below = np.searchsorted(s._sorted[1], s.diseased, side="left")
    return float(below.sum() / (s.diseased.size * s.healthy.size))


def youden(s: ScoreSample) -> tuple[float, float]:
    """Youden index and its achieving threshold.

    The value is the maximum of F_H(c) - F_D(c) over all candidate
    thresholds c among the observed scores, which coincides with the
    supremum over p in (0, 1) of ROC(p) - p.  The smallest achieving
    threshold is returned on ties.
    """
    ordered_d, ordered_h = s._sorted
    # Only healthy scores need testing.  At a score held by diseased scores
    # alone, F_H keeps its value at the next lower score while F_D grows, so
    # the gap is strictly below the gap there, or below zero if no score is
    # lower; the gap at the largest healthy score is nonnegative.  So the
    # maximum and its smallest threshold always fall on a healthy score.
    gaps = _cdf(ordered_h, ordered_h) - _cdf(ordered_d, ordered_h)
    best = int(np.argmax(gaps))
    return float(gaps[best]), float(ordered_h[best])


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

    ordered_d, ordered_h = s._sorted
    values = np.where(p_grid < 1.0, 0.0, 1.0)  # the endpoint convention
    interior = (p_grid > 0.0) & (p_grid < 1.0)
    values[interior] = 1.0 - _cdf(ordered_d, _quantile(ordered_h, 1.0 - p_grid[interior]))

    youden_value, youden_threshold = youden(s)
    return RocSummary(
        p_grid=p_grid,
        roc_values=values,
        auc=auc(s),
        youden=youden_value,
        youden_threshold=youden_threshold,
    )


def score_sample(
    idx: DiscriminantIndex, d: FunctionalSample, h: FunctionalSample
) -> ScoreSample:
    """Apply a discriminant index to both samples, curve by curve."""
    return ScoreSample(diseased=index_scores(idx, d), healthy=index_scores(idx, h))
