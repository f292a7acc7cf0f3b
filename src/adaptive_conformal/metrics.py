"""Coverage diagnostics over recorded trajectories.

``local_coverage`` uses a centered window: the value reported for step t
averages the error bits over (t - w/2, t + w/2], so the series is only
defined where the full window fits and has length ``n - w + 1``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .conformal import quantile_rank, realized_scores
from .core import WEIGHTED, AciConfig, prop_bound, run_level_batch
from .errors import ConfigurationError, NoDataError

#: Centered-window sizes used by the two experiment pipelines.
VOLATILITY_WINDOW = 500
ELECTION_WINDOW = 300


@dataclass(frozen=True)
class TrajectoryReport:
    """Per-step columns of one online-calibration run.

    ``alphas[i]`` is the level in force when step ``i`` was predicted,
    ``errs[i]`` the resulting miscoverage bit, and ``[lower[i], upper[i]]``
    the prediction set (``(inf, -inf)`` when empty).
    """

    errs: np.ndarray
    alphas: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    step_labels: tuple[str, ...]
    config_echo: AciConfig

    def __post_init__(self):
        object.__setattr__(self, "errs", np.asarray(self.errs, dtype=np.int8))
        for name in ("alphas", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.errs)
        if not (len(self.alphas) == len(self.lower) == len(self.upper)
                == len(self.step_labels) == n):
            raise ConfigurationError("trajectory fields must have equal length")

    def __len__(self) -> int:
        return len(self.errs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrajectoryReport):
            return NotImplemented
        return (
            np.array_equal(self.errs, other.errs)
            and np.array_equal(self.alphas, other.alphas)
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
            and self.step_labels == other.step_labels
            and self.config_echo == other.config_echo
        )


def replay(config: AciConfig, scores, calibration, interval, labels) -> TrajectoryReport:
    """Run the adaptive-level recursion over a level-independent prediction stream.

    Step ``t`` realizes ``scores[t]`` against ``cal``, the ``t``-th sorted list that
    ``calibration()`` yields, and misses when its exceedance rank ``#{cal < score} / n``
    is at least ``1 - alpha_t``: exactly when it exceeds the threshold ``cal[k - 1]``,
    ``k = quantile_rank(n, 1 - alpha_t)``. The threshold is ``+inf`` (the whole line)
    when ``alpha_t < 0``, decided on ``alpha_t`` because ``1 - alpha_t`` rounds to 1
    for tiny negative levels, and ``-inf`` (the empty set) when ``alpha_t >= 1``. One
    ``interval(thresholds)`` call maps it to the interval columns, so a bit and its
    interval cannot disagree. A non-finite score raises ``DomainError``.
    """
    scores = realized_scores(scores)
    ranks = [bisect_left(cal, s) / len(cal) for s, cal in zip(scores.tolist(), calibration())]
    alphas, errs = run_level_batch(config, np.array(ranks), False)
    thresholds = [math.inf if a < 0.0 else -math.inf if a >= 1.0
                  else cal[quantile_rank(len(cal), 1.0 - a) - 1]
                  for a, cal in zip(alphas.tolist(), calibration())]
    sets = interval(np.array(thresholds))
    return TrajectoryReport(errs=errs, alphas=alphas, lower=sets.lower, upper=sets.upper,
                            step_labels=tuple(labels), config_echo=config)


def check_local_window(window: int) -> None:
    """Reject a centered-window size that is not a positive even integer."""
    if window % 2 != 0 or window < 2:
        raise ConfigurationError(f"window must be a positive even integer, got {window}")


def local_coverage(errs, window: int) -> np.ndarray:
    """Windowed coverage series 1 - mean(errs over the centered window), along the last axis."""
    errs = np.asarray(errs, dtype=float)
    n = errs.shape[-1]
    check_local_window(window)
    if window > n:
        raise NoDataError(f"window {window} exceeds trajectory length {n}")
    cs = np.concatenate([np.zeros(errs.shape[:-1] + (1,)), np.cumsum(errs, axis=-1)], axis=-1)
    return 1.0 - (cs[..., window:] - cs[..., :-window]) / window


def average_coverage(errs) -> float:
    errs = np.asarray(errs, dtype=float)
    if errs.size == 0:
        raise NoDataError("empty error sequence")
    return 1.0 - float(np.mean(errs))


def bernoulli_band(
    horizon: int,
    alpha: float,
    window: int,
    reps: int,
    band_quantile: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise envelopes of the windowed coverage of i.i.d. Bernoulli errors.

    Simulates ``reps`` error sequences of length ``horizon`` with miss
    probability ``alpha`` and returns the two-sided ``band_quantile``
    envelopes of their local-coverage series. This is the yardstick for "no
    worse than exchangeable" coverage fluctuation.
    """
    if reps < 100:
        raise ConfigurationError(f"need at least 100 replications, got {reps}")
    if not 0.0 < band_quantile < 1.0:
        raise ConfigurationError(f"band_quantile must lie in (0, 1), got {band_quantile}")
    cov = local_coverage(rng.random((reps, horizon)) < alpha, window)
    tail = (1.0 - band_quantile) / 2.0
    lower = np.quantile(cov, tail, axis=0)
    upper = np.quantile(cov, 1.0 - tail, axis=0)
    return lower, upper


def summarize(report: TrajectoryReport, window: int) -> dict:
    """The ``summary.json`` record: a trajectory's headline coverage diagnostics.

    The bound check is vacuous (infinite bound) for a frozen level and
    absent (None) for the weighted rule, which the bound does not cover; the
    local deviation is None when the trajectory is shorter than the window.
    """
    if len(report) == 0:
        raise NoDataError("empty trajectory")
    cfg = report.config_echo
    n = len(report)
    max_dev = None
    if window <= n:
        local = local_coverage(report.errs, window)
        max_dev = float(np.max(np.abs(local - (1.0 - cfg.target_miscoverage))))
    if cfg.update_rule == WEIGHTED:
        bound = satisfied = None
    else:
        bound = prop_bound(cfg, n) if cfg.step_size > 0.0 else math.inf
        satisfied = bool(abs(float(np.mean(report.errs)) - cfg.target_miscoverage) <= bound)
    return {
        "average_coverage": average_coverage(report.errs),
        "max_local_deviation": max_dev,
        "prop_bound_value": bound,
        "prop_bound_satisfied": satisfied,
        "n_steps": n,
        "target_miscoverage": cfg.target_miscoverage,
        "local_window": window,
    }
