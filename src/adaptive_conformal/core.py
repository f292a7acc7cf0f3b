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
        if self.update_rule == WEIGHTED and not 0.0 < self.decay < 1.0:
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


def update(state: AciState, err: int) -> AciState:
    """Advance the trajectory by one step.

    The error bit is coerced to the value forced by the current level: with
    alpha_t < 0 the set covers everything so ``err = 0``, with alpha_t > 1 it
    covers nothing so ``err = 1``. Inside [0, 1] the caller's bit is used.
    """
    if err not in (0, 1):
        raise ConfigurationError(f"err must be 0 or 1, got {err!r}")
    a = state.current_level
    if a < 0.0:
        err = 0
    elif a > 1.0:
        err = 1

    cfg = state.config
    if cfg.update_rule == SIMPLE:
        feedback = float(err)
        num, den = state.weighted_err_numerator, state.weighted_err_denominator
    else:
        num = cfg.decay * state.weighted_err_numerator + err
        den = cfg.decay * state.weighted_err_denominator + 1.0
        feedback = num / den

    return replace(
        state,
        current_level=a + cfg.step_size * (cfg.target_miscoverage - feedback),
        step_index=state.step_index + 1,
        weighted_err_numerator=num,
        weighted_err_denominator=den,
        cumulative_err_count=state.cumulative_err_count + err,
    )


def prop_bound(config: AciConfig, horizon: int) -> float:
    """Worst-case bound on |empirical miscoverage - target| after ``horizon`` steps.

    Equals (max(alpha_1, 1 - alpha_1) + gamma) / (horizon * gamma) and holds
    with probability one for the simple rule.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if config.step_size == 0.0:
        raise DomainError("the coverage bound is undefined for step_size 0")
    a1 = config.initial_level
    return (max(a1, 1.0 - a1) + config.step_size) / (horizon * config.step_size)


def empirical_miscoverage(state: AciState) -> float:
    """Fraction of errors over the updates taken so far."""
    steps = state.step_index - 1
    if steps < 1:
        raise NoDataError("no updates have been taken yet")
    return state.cumulative_err_count / steps
