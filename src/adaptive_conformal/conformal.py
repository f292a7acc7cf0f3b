"""Conformity scores, calibration quantiles, and interval construction.

Three score families are supported:

* absolute residual around a point prediction,
* relative residual around a positive variance forecast,
* signed distance outside a fitted lower/upper quantile pair (the CQR score).

Each family knows how to score a candidate label and how to invert a score
threshold back into an explicit interval, so membership checks and error
indicators are always two views of the same inequality.
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
    """A closed interval on the extended real line; ``lower > upper`` means empty."""

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    @property
    def is_whole_line(self) -> bool:
        return self.lower == -INF and self.upper == INF

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower if not self.is_empty else 0.0


EMPTY_INTERVAL = PredictionInterval(INF, -INF)
WHOLE_LINE = PredictionInterval(-INF, INF)


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
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n == 0:
        raise NoDataError("empty calibration set")
    if not np.isfinite(scores).all():
        raise DomainError("calibration scores must be finite")
    # k = smallest integer with k/n >= p, robust to float rounding in p * n.
    k = math.ceil(p * n)
    while k > 1 and (k - 1) / n >= p:
        k -= 1
    while k / n < p:
        k += 1
    return float(np.partition(scores, k - 1)[k - 1])


@dataclass(frozen=True)
class AbsoluteScore:
    """Distance of the label from a point prediction."""

    point_prediction: float

    def score(self, y: float) -> float:
        return abs(self.point_prediction - y)

    def interval(self, threshold: float) -> PredictionInterval:
        if threshold == INF:
            return WHOLE_LINE
        lo = self.point_prediction - threshold
        hi = self.point_prediction + threshold
        return PredictionInterval(lo, hi) if lo <= hi else EMPTY_INTERVAL


@dataclass(frozen=True)
class NormalizedScore:
    """Relative distance of the label from a positive variance forecast.

    The inverted interval is clipped at 0 because realized volatility is
    nonnegative; the clip only removes points no score can reach.
    """

    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0.0:
            raise DomainError(f"variance forecast must be positive, got {self.sigma2}")

    def score(self, y: float) -> float:
        return abs(y - self.sigma2) / self.sigma2

    def interval(self, threshold: float) -> PredictionInterval:
        if threshold == INF:
            return WHOLE_LINE
        lo = self.sigma2 * (1.0 - threshold)
        hi = self.sigma2 * (1.0 + threshold)
        if lo > hi:
            return EMPTY_INTERVAL
        return PredictionInterval(max(0.0, lo), hi)


@dataclass(frozen=True)
class CqrScore:
    """Signed distance of the label outside a lower/upper quantile pair.

    Crossing fits (lower above upper) are repaired by sorting, which is a
    known artifact of quantile regression rather than a user error.
    """

    q_lo: float
    q_hi: float

    def __post_init__(self):
        if self.q_lo > self.q_hi:
            logger.warning(
                "crossing quantile pair (%.6g > %.6g); swapping", self.q_lo, self.q_hi
            )
            lo, hi = self.q_hi, self.q_lo
            object.__setattr__(self, "q_lo", lo)
            object.__setattr__(self, "q_hi", hi)

    def score(self, y: float) -> float:
        return max(self.q_lo - y, y - self.q_hi)

    def interval(self, threshold: float) -> PredictionInterval:
        if threshold == INF:
            return WHOLE_LINE
        lo = self.q_lo - threshold
        hi = self.q_hi + threshold
        return PredictionInterval(lo, hi) if lo <= hi else EMPTY_INTERVAL


def err_indicator(score: float, threshold: float) -> int:
    """1 when the score strictly exceeds the threshold, else 0."""
    return 1 if score > threshold else 0
