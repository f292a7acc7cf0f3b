"""Conformity scores, calibration quantiles, and interval construction.

Three score families are supported:

* absolute residual around a point prediction,
* relative residual around a positive variance forecast,
* signed distance outside a fitted lower/upper quantile pair (the CQR score).

Each family knows how to score a candidate label and how to invert a score
threshold back into an explicit interval, so membership checks and error
indicators are always two views of the same inequality. Every family works
elementwise on numpy arrays (a float is the 0-d case), so one object and one
call score or invert a whole trajectory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoDataError

logger = logging.getLogger(__name__)

INF = math.inf


@dataclass(frozen=True)
class PredictionInterval:
    """Closed intervals on the extended real line, elementwise.

    ``lower`` and ``upper`` are floats or equal-shape arrays. An entry with
    ``lower > upper`` is empty; the score families write it ``(inf, -inf)``.
    """

    lower: float | np.ndarray
    upper: float | np.ndarray

    @property
    def is_empty(self):
        return self.lower > self.upper

    @property
    def is_whole_line(self):
        return (self.lower == -INF) & (self.upper == INF)

    def contains(self, y):
        return (self.lower <= y) & (y <= self.upper)

    @property
    def width(self):
        return np.where(self.is_empty, 0.0, self.upper - self.lower)[()]


EMPTY_INTERVAL = PredictionInterval(INF, -INF)
WHOLE_LINE = PredictionInterval(-INF, INF)


def _columns(lower, upper) -> PredictionInterval:
    """Intervals with every empty entry (``lower > upper``) written ``(inf, -inf)``.

    Indexing with ``[()]`` turns a 0-d result into a scalar and leaves arrays as they are.
    """
    empty = lower > upper
    return PredictionInterval(np.where(empty, INF, lower)[()], np.where(empty, -INF, upper)[()])


def quantile_rank(n: int, p: float) -> int:
    """Smallest integer k with k / n >= p, decided in float arithmetic; p in (0, 1]."""
    k = math.ceil(p * n)  # off by one either way when p * n rounds
    while k > 1 and (k - 1) / n >= p:
        k -= 1
    while k / n < p:
        k += 1
    return k


def calibration_scores(scores) -> np.ndarray:
    """``scores`` as a float array; raises unless they form a nonempty finite set."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise NoDataError("empty calibration set")
    if not np.isfinite(scores).all():
        raise DomainError("calibration scores must be finite")
    return scores


def realized_scores(scores) -> np.ndarray:
    """``scores`` as a float array; raises unless every realized score is finite."""
    scores = np.asarray(scores, dtype=float)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise DomainError(f"realized scores must be finite; step {bad[0] + 1} is {scores[bad[0]]}")
    return scores


def empirical_quantile(scores, p: float) -> float:
    """Smallest value s with #{scores <= s} / n >= p.

    Levels at or below 0 return -inf and levels above 1 return +inf, matching
    the convention that out-of-range levels denote the whole line or the
    empty set.
    """
    if p > 1.0:
        return INF
    if p <= 0.0:
        return -INF
    scores = calibration_scores(scores)
    k = quantile_rank(scores.size, p)
    return float(np.partition(scores, k - 1)[k - 1])


@dataclass(frozen=True)
class AbsoluteScore:
    """Distance of the label from a point prediction."""

    point_prediction: float | np.ndarray

    def score(self, y):
        return np.abs(self.point_prediction - y)

    def interval(self, threshold) -> PredictionInterval:
        return _columns(self.point_prediction - threshold, self.point_prediction + threshold)


@dataclass(frozen=True)
class NormalizedScore:
    """Relative distance of the label from a positive variance forecast.

    The inverted interval is clipped at 0 because realized volatility is
    nonnegative; the clip only removes points no score can reach. An
    infinite threshold still gives the whole line.
    """

    sigma2: float | np.ndarray

    def __post_init__(self):
        if not np.greater(self.sigma2, 0.0).all():
            raise DomainError(
                f"variance forecast must be positive, got {np.min(self.sigma2)}"
            )

    def score(self, y):
        return np.abs(y - self.sigma2) / self.sigma2

    def interval(self, threshold) -> PredictionInterval:
        lower = self.sigma2 * (1.0 - threshold)
        lower = np.where(threshold == INF, lower, np.maximum(0.0, lower))
        return _columns(lower, self.sigma2 * (1.0 + threshold))


@dataclass(frozen=True)
class CqrScore:
    """Signed distance of the label outside a lower/upper quantile pair.

    Crossing fits (lower above upper) are repaired by swapping the pair,
    which is a known artifact of quantile regression rather than a user error.
    """

    q_lo: float | np.ndarray
    q_hi: float | np.ndarray

    def __post_init__(self):
        crossing = self.q_lo > self.q_hi
        n_crossing = np.count_nonzero(crossing)
        if n_crossing:
            logger.warning("swapping %d crossing quantile pair(s)", n_crossing)
            lo, hi = np.minimum(self.q_lo, self.q_hi), np.maximum(self.q_lo, self.q_hi)
            object.__setattr__(self, "q_lo", lo)
            object.__setattr__(self, "q_hi", hi)

    def score(self, y):
        return np.maximum(self.q_lo - y, y - self.q_hi)

    def interval(self, threshold) -> PredictionInterval:
        return _columns(self.q_lo - threshold, self.q_hi + threshold)


def err_indicator(score: float, threshold: float) -> int:
    """1 when the score strictly exceeds the threshold, else 0."""
    return 1 if score > threshold else 0
