"""Coverage diagnostics over recorded trajectories.

``local_coverage`` uses a centered window: the value reported for step t
averages the error bits over (t - w/2, t + w/2], so the series is only
defined where the full window fits and has length ``n - w + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .conformal import PredictionInterval, err_indicator
from .core import AciConfig, prop_bound
from .errors import ConfigurationError, NoDataError

#: Centered-window sizes used by the two experiment pipelines.
VOLATILITY_WINDOW = 500
ELECTION_WINDOW = 300


@dataclass(frozen=True)
class TrajectoryReport:
    """Per-step record of one online-calibration run.

    ``alphas[i]`` is the level in force when step ``i`` was predicted, and
    ``errs[i]`` the resulting miscoverage bit. ``valid`` is False only on
    partial reports recovered from an aborted run.
    """

    errs: np.ndarray
    alphas: np.ndarray
    intervals: tuple[PredictionInterval, ...]
    step_labels: tuple[str, ...]
    config_echo: AciConfig
    valid: bool = True
    failure: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "errs", np.asarray(self.errs, dtype=np.int8))
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        n = len(self.errs)
        if not (len(self.alphas) == len(self.intervals) == len(self.step_labels) == n):
            raise ConfigurationError("trajectory fields must have equal length")

    def __len__(self) -> int:
        return len(self.errs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrajectoryReport):
            return NotImplemented
        return (
            np.array_equal(self.errs, other.errs)
            and np.array_equal(self.alphas, other.alphas)
            and self.intervals == other.intervals
            and self.step_labels == other.step_labels
            and self.config_echo == other.config_echo
            and self.valid == other.valid
        )


def replay(config: AciConfig, scores, quantile_at, interval_at, labels) -> TrajectoryReport:
    """Run the adaptive-level recursion over a level-independent prediction stream.

    Step ``t`` realizes the conformity score ``scores[t]``. Its threshold is
    ``quantile_at(t, 1 - alpha_t)``, or ``+inf`` (the whole line) when
    ``alpha_t < 0``. That case is decided on ``alpha_t`` itself, because
    ``1 - alpha_t`` rounds to 1 for tiny negative levels. The miss bit is
    ``err_indicator(scores[t], threshold)`` and the recorded interval is
    ``interval_at(t, threshold)``, so the two can never disagree.
    """
    state = core.init(config)
    errs, alphas, intervals = [], [], []
    for t, score in enumerate(scores):
        a = state.current_level
        threshold = math.inf if a < 0.0 else quantile_at(t, 1.0 - a)
        err = err_indicator(score, threshold)
        errs.append(err)
        alphas.append(a)
        intervals.append(interval_at(t, threshold))
        state = core.update(state, err)
    return TrajectoryReport(
        errs=np.array(errs, dtype=np.int8),
        alphas=np.array(alphas, dtype=float),
        intervals=tuple(intervals),
        step_labels=tuple(labels),
        config_echo=config,
    )


@dataclass(frozen=True)
class CoverageSummary:
    average_coverage: float
    max_local_deviation: float
    prop_bound_value: float
    prop_bound_satisfied: bool


def check_local_window(window: int) -> None:
    """Reject a centered-window size that is not a positive even integer."""
    if window % 2 != 0 or window < 2:
        raise ConfigurationError(f"window must be a positive even integer, got {window}")


def local_coverage(errs, window: int) -> np.ndarray:
    """Windowed coverage series 1 - mean(errs over the centered window)."""
    errs = np.asarray(errs, dtype=float)
    n = errs.size
    check_local_window(window)
    if window > n:
        raise NoDataError(f"window {window} exceeds trajectory length {n}")
    cs = np.concatenate([[0.0], np.cumsum(errs)])
    return 1.0 - (cs[window:] - cs[:-window]) / window


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
    errs = (rng.random((reps, horizon)) < alpha).astype(np.float64)
    cs = np.concatenate([np.zeros((reps, 1)), np.cumsum(errs, axis=1)], axis=1)
    cov = 1.0 - (cs[:, window:] - cs[:, :-window]) / window
    tail = (1.0 - band_quantile) / 2.0
    lower = np.quantile(cov, tail, axis=0)
    upper = np.quantile(cov, 1.0 - tail, axis=0)
    return lower, upper


def summarize(report: TrajectoryReport, window: int) -> CoverageSummary:
    """Aggregate a trajectory into its headline coverage diagnostics.

    The bound check is vacuous (infinite bound) for a frozen level, and the
    local-deviation field is NaN when the trajectory is shorter than the
    window.
    """
    if len(report) == 0:
        raise NoDataError("empty trajectory")
    cfg = report.config_echo
    n = len(report)
    avg = average_coverage(report.errs)
    if window <= n:
        local = local_coverage(report.errs, window)
        max_dev = float(np.max(np.abs(local - (1.0 - cfg.target_miscoverage))))
    else:
        max_dev = math.nan
    if cfg.step_size > 0.0:
        bound = prop_bound(cfg, n)
    else:
        bound = math.inf
    gap = abs(float(np.mean(report.errs)) - cfg.target_miscoverage)
    return CoverageSummary(
        average_coverage=avg,
        max_local_deviation=max_dev,
        prop_bound_value=bound,
        prop_bound_satisfied=bool(gap <= bound),
    )
