"""Online recalibration of the miscoverage level.

The state tracked here is the adaptive level ``alpha_t``. After every
prediction the caller reports whether the realized label was missed
(``err = 1``) or covered (``err = 0``) and the level moves by

    alpha_{t+1} = alpha_t + gamma * (target - feedback)

where ``feedback`` is the raw error bit for the simple rule, or a
geometrically weighted average of all past error bits for the weighted rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, NoDataError

SIMPLE = "simple"
WEIGHTED = "weighted"

#: Step size used throughout the experiments; large enough to track shifts,
#: small enough to keep the level path stable.
DEFAULT_STEP_SIZE = 0.005


@dataclass(frozen=True)
class AciConfig:
    """Static parameters of one adaptive-level trajectory.

    Args:
        target_miscoverage: long-run miscoverage target, in (0, 1).
        step_size: finite update gain gamma >= 0. Zero freezes the level and yields
            the non-adaptive baseline.
        initial_level: starting level alpha_1 in [0, 1]. Defaults to the
            target itself.
        update_rule: ``"simple"`` or ``"weighted"``.
        decay: geometric weight ratio in (0, 1); only used by the weighted rule.
    """

    target_miscoverage: float
    step_size: float = DEFAULT_STEP_SIZE
    initial_level: float | None = None
    update_rule: str = SIMPLE
    decay: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.target_miscoverage < 1.0:
            raise ConfigurationError(
                f"target_miscoverage must lie in (0, 1), got {self.target_miscoverage}"
            )
        if not 0.0 <= self.step_size < math.inf:
            raise ConfigurationError(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.initial_level is None:
            object.__setattr__(self, "initial_level", self.target_miscoverage)
        if not 0.0 <= self.initial_level <= 1.0:
            raise ConfigurationError(
                f"initial_level must lie in [0, 1], got {self.initial_level}"
            )
        if self.update_rule not in (SIMPLE, WEIGHTED):
            raise ConfigurationError(f"unknown update_rule {self.update_rule!r}")
        if not 0.0 < self.decay < 1.0:
            raise ConfigurationError(f"decay must lie in (0, 1), got {self.decay}")


@dataclass(frozen=True)
class AciState:
    """Mutable-by-replacement trajectory state after ``step_index - 1`` updates."""

    config: AciConfig
    current_level: float
    step_index: int = 1
    weighted_err_numerator: float = 0.0
    weighted_err_denominator: float = 0.0
    cumulative_err_count: int = 0


def init(config: AciConfig) -> AciState:
    """Start a trajectory at the configured initial level."""
    return AciState(config=config, current_level=config.initial_level)


def next_level(config: AciConfig, level, err, num, den):
    """The level recursion on floats or equal-shape arrays; every runner calls it.

    ``num`` and ``den`` are the weighted rule's geometric sums of past error
    bits and of ones (the simple rule passes them through). Returns the next
    ``(level, num, den)``.
    """
    if config.update_rule == SIMPLE:
        feedback = err
    else:
        num = config.decay * num + err
        den = config.decay * den + 1.0
        feedback = num / den
    return level + config.step_size * (config.target_miscoverage - feedback), num, den


def run_level_steps(config: AciConfig, levels, strict: bool, carry):
    """The level recursion over exceedance levels, one numpy column per step.

    Step t misses when ``levels[..., t] > 1 - alpha_t`` (``strict``), else when
    ``levels[..., t] >= 1 - alpha_t``; as in ``update``, it never misses at alpha_t < 0
    and always misses at alpha_t >= 1. The rows of a (reps, steps) block evolve
    independently; a 1-D input is one row. ``carry`` is the ``(level, num, den)`` in
    force before the first step, so consecutive time blocks run as one trajectory.
    Returns (alphas, errs, carry after the last step), the arrays laid out like
    ``levels``; ``alphas[..., t]`` is in force at step t.
    """
    levels = np.asarray(levels, dtype=float)
    alphas = np.empty_like(levels)
    errs = np.empty_like(levels, dtype=np.int8)
    alpha_out, err_out = alphas.T, errs.T  # step t fills column t (a row's .T is the row)
    a, num, den = carry
    for t, u in enumerate(levels.T):
        # Levels lie in [0, 1], so the strict comparison already gives no error
        # at a < 0 and the non-strict one an error at a >= 1. Each needs a guard
        # at its other end: 1 - a rounds to 1 for tiny negative a, and at a = 1 a
        # level that underflowed to 0 is not above 1 - a = 0.
        p = 1.0 - a
        err = (u > p) | (a >= 1.0) if strict else (u >= p) & (a >= 0.0)
        alpha_out[t], err_out[t] = a, err
        a, num, den = next_level(config, a, err, num, den)
    return alphas, errs, (a, num, den)


def run_level_batch(config: AciConfig, levels, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """``run_level_steps`` from the configured initial level: (alphas, errs) of whole runs."""
    levels = np.asarray(levels, dtype=float)
    a = np.full(levels.shape[:-1], float(config.initial_level))
    alphas, errs, _ = run_level_steps(config, levels, strict, (a, 0.0, 0.0))
    return alphas, errs


def update(state: AciState, err: int) -> AciState:
    """Advance the trajectory by one step.

    The error bit is coerced to the value forced by the current level: with
    alpha_t < 0 the set covers everything so ``err = 0``, with alpha_t >= 1 it
    covers nothing so ``err = 1``. Inside [0, 1) the caller's bit is used.
    """
    if err not in (0, 1):
        raise ConfigurationError(f"err must be 0 or 1, got {err!r}")
    a = state.current_level
    if a < 0.0:
        err = 0
    elif a >= 1.0:
        err = 1
    level, num, den = next_level(state.config, a, err, state.weighted_err_numerator,
                                 state.weighted_err_denominator)
    return replace(
        state,
        current_level=level,
        step_index=state.step_index + 1,
        weighted_err_numerator=num,
        weighted_err_denominator=den,
        cumulative_err_count=state.cumulative_err_count + err,
    )


def prop_bound(config: AciConfig, horizon: int) -> float:
    """Worst-case bound on |empirical miscoverage - target| after ``horizon`` steps.

    Equals (max(alpha_1, 1 - alpha_1) + gamma) / (horizon * gamma) and holds
    with probability one for the simple rule; it is computed as
    (max(alpha_1, 1 - alpha_1) / gamma + 1) / horizon, which cannot overflow.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if config.step_size == 0.0:
        raise DomainError("the coverage bound is undefined for step_size 0")
    a1 = config.initial_level
    return (max(a1, 1.0 - a1) / config.step_size + 1.0) / horizon


def empirical_miscoverage(state: AciState) -> float:
    """Fraction of errors over the updates taken so far."""
    steps = state.step_index - 1
    if steps < 1:
        raise NoDataError("no updates have been taken yet")
    return state.cumulative_err_count / steps
