"""Finite-state hidden-Markov testbed for the coverage theory.

The environment is a Markov chain; conditional on the state, scores are
independent normals with per-state mean and scale. The score-quantile
function is held fixed across time, which makes every theoretical quantity
(per-state oracle levels, bias terms, spectral gap) computable and lets long
Monte Carlo runs validate the concentration and regret bounds numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import bounds, core
from .conformal import empirical_quantile, realized_scores
from .core import run_level_batch
from .errors import (
    ConfigurationError,
    DomainError,
    ErgodicityError,
    NonReversibleChainError,
    RootFindingError,
)
from .metrics import TrajectoryReport

REVERSIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class HmmSpec:
    """Environment chain plus per-state normal score distributions."""

    transition: np.ndarray
    score_means: np.ndarray
    score_scales: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        means = np.asarray(self.score_means, dtype=float)
        scales = np.asarray(self.score_scales, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ConfigurationError("transition must be a square matrix")
        n = p.shape[0]
        if np.any(p < 0.0):
            raise ConfigurationError("transition entries must be nonnegative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ConfigurationError("transition rows must sum to 1")
        if means.shape != (n,) or scales.shape != (n,):
            raise ConfigurationError("need one score mean and scale per state")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(scales))):
            raise ConfigurationError("score means and scales must be finite")
        if np.any(scales <= 0.0):
            raise ConfigurationError("score scales must be positive")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "score_means", means)
        object.__setattr__(self, "score_scales", scales)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


def symmetric_chain(n: int, p: float) -> np.ndarray:
    """Transition matrix with diagonal p and uniform off-diagonal mass.

    Requires p in (1/n, 1) so staying put dominates any single move.
    """
    if n < 2:
        raise DomainError(f"need at least 2 states, got {n}")
    if not 1.0 / n < p < 1.0:
        raise DomainError(f"p must lie in (1/{n}, 1), got {p}")
    off = (1.0 - p) / (n - 1)
    return (p - off) * np.eye(n) + off * np.ones((n, n))


def stationary_distribution(transition) -> np.ndarray:
    """Stationary row vector: the left eigenvector of eigenvalue 1; requires an ergodic chain.

    Normalizing |v| keeps rounding noise on transient states at >= 0.
    """
    eigvals, eigvecs = np.linalg.eig(np.asarray(transition, dtype=float).T)
    on_circle = np.flatnonzero(np.abs(eigvals) > 1.0 - 1e-8)
    if on_circle.size != 1:
        raise ErgodicityError(
            f"chain has {on_circle.size} eigenvalues on the unit circle; no unique "
            "stationary distribution"
        )
    v = np.abs(eigvecs[:, on_circle[0]])
    return v / v.sum()


def spectral_gap(transition) -> float:
    """1 minus the second-largest absolute eigenvalue of the chain.

    Computed through the stationary-symmetrized matrix, so only reversible
    chains are supported; others raise rather than return a wrong number.
    """
    p = np.asarray(transition, dtype=float)
    pi = stationary_distribution(p)
    flow = pi[:, None] * p
    if np.max(np.abs(flow - flow.T)) > REVERSIBILITY_TOL:
        raise NonReversibleChainError(
            "chain is not reversible with respect to its stationary distribution"
        )
    root = np.sqrt(pi)
    sym = (root[:, None] / root[None, :]) * p
    eigs = np.sort(np.abs(np.linalg.eigvalsh(sym)))
    eta = float(eigs[-2]) if len(eigs) > 1 else 0.0
    return 1.0 - eta


def simulate_hmm(
    spec: HmmSpec, horizon: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One state path started from the stationary distribution, plus scores."""
    states, scores = simulate_hmm_batch(spec, horizon, 1, rng)
    return states[0], scores[0]


def simulate_hmm_batch(
    spec: HmmSpec, horizon: int, reps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``reps`` independent paths advanced in lockstep; shapes (reps, horizon)."""
    if horizon < 1 or reps < 1:
        raise ConfigurationError("horizon and reps must be >= 1")
    pi = stationary_distribution(spec.transition)
    cum = np.cumsum(spec.transition, axis=1)
    states = np.empty((reps, horizon), dtype=np.int64)
    states[:, 0] = rng.choice(spec.n_states, size=reps, p=pi)
    for t in range(1, horizon):
        u = rng.random(reps)
        rows = cum[states[:, t - 1]]
        states[:, t] = (rows < u[:, None]).sum(axis=1)
    noise = rng.standard_normal((reps, horizon))
    scores = spec.score_means[states] + spec.score_scales[states] * noise
    return states, scores


@dataclass(frozen=True)
class NormalQuantile:
    """Analytic normal quantile function with the out-of-range conventions."""

    mean: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ConfigurationError(f"mean must be finite, got {self.mean}")
        if not 0.0 < self.scale < math.inf:
            raise ConfigurationError(f"scale must be finite and positive, got {self.scale}")

    def __call__(self, p: float) -> float:
        if p < 0.0:
            return -math.inf
        if p > 1.0:
            return math.inf
        return self.mean + self.scale * float(ndtri(p))


@dataclass(frozen=True)
class EmpiricalQuantile:
    """Frozen calibration-score snapshot used as the quantile function."""

    scores: np.ndarray

    def __post_init__(self):
        scores = np.sort(np.asarray(self.scores, dtype=float))
        if scores.size == 0:
            raise ConfigurationError("empty calibration snapshot")
        if not np.isfinite(scores).all():
            raise ConfigurationError("calibration snapshot scores must be finite")
        object.__setattr__(self, "scores", scores)

    def __call__(self, p: float) -> float:
        return empirical_quantile(self.scores, p)


FixedQuantileFn = NormalQuantile | EmpiricalQuantile


def exceedance_levels(qhat: FixedQuantileFn, scores: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-score levels u with {score > qhat(p)} = {u > p} (or >= when flagged).

    For the analytic quantile, u is the qhat-CDF of the score and the
    comparison is strict; for an empirical snapshot of n values, u is the
    fraction strictly below the score and the comparison is non-strict. This
    turns the per-step error indicator into a single float comparison.
    """
    scores = np.asarray(scores, dtype=float)
    if isinstance(qhat, NormalQuantile):
        return ndtr((scores - qhat.mean) / qhat.scale), True
    below = np.searchsorted(qhat.scores, scores, side="left")
    return below / qhat.scores.size, False


def run_fixed_quantile_aci(
    scores, qhat: FixedQuantileFn, config: core.AciConfig
) -> TrajectoryReport:
    """Adaptive calibration of a fixed quantile function over a score stream.

    The per-step prediction set is the score sublevel set
    ``(-inf, qhat(1 - alpha_t)]``; its bounds are recorded as the interval. A
    non-finite score raises ``DomainError``.
    """
    levels, strict = exceedance_levels(qhat, realized_scores(scores))
    alphas, errs = run_level_batch(config, levels, strict)
    # qhat(1 - alpha_t) is -inf from alpha_t = 1 on; a negative level covers
    # the whole line, also where 1 - alpha_t rounds to 1.
    upper = [math.inf if a < 0.0 else qhat(1.0 - a) for a in alphas.tolist()]
    return TrajectoryReport(errs, alphas, np.full(levels.size, -math.inf), upper,
                            tuple(str(t + 1) for t in range(levels.size)), config)


def per_state_alpha_star(spec: HmmSpec, qhat: FixedQuantileFn, alpha: float) -> np.ndarray:
    """Per-state level alpha* at which ``P(score > qhat(1 - alpha*)) = alpha``.

    A step misses when its exceedance level passes ``1 - alpha_t``, so alpha* is one
    minus the exceedance level of the state's own ``1 - alpha`` score quantile. An
    empirical snapshot wholly below that quantile (level 1, non-strict) misses more
    than ``alpha`` at every level in [0, 1] and raises.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    levels, strict = exceedance_levels(
        qhat, spec.score_means + spec.score_scales * ndtri(1.0 - alpha))
    if not strict and levels.max() == 1.0:
        raise RootFindingError(
            f"state {int(np.argmax(levels))}: no level in [0, 1] reaches miscoverage {alpha}")
    return 1.0 - levels


@dataclass(frozen=True)
class BiasEstimate:
    """Monte-Carlo plug-in for the per-state coverage bias terms."""

    b_hat: float
    sigma_b2_hat: float
    per_state_err_mean: np.ndarray
    per_state_se: np.ndarray
    stationary: np.ndarray
    n_samples: int


def estimate_bias_terms(
    spec: HmmSpec,
    qhat: FixedQuantileFn,
    config: core.AciConfig,
    reps: int,
    rng: np.random.Generator,
    horizon: int = 2000,
) -> BiasEstimate:
    """Plug-in estimates of the worst-state and mean-square coverage bias.

    Discards a burn-in of ceil(20 / gamma) steps per replication so the
    (level, state) pair is close to stationarity, then averages error bits by
    state across all replications. The max estimate is biased upward by noise,
    so per-state standard errors are reported alongside.
    """
    return _stationary_bias(spec, qhat, config, reps, horizon, rng)[0]


def _stationary_bias(spec, qhat, config, reps, horizon, rng):
    """Bias plug-ins of ``reps`` batched runs, and the runs' (reps, horizon) error tail.

    Each run discards a burn-in of ceil(20 / gamma) steps. Masks stay
    two-dimensional: flattening the non-contiguous tail views would copy them.
    """
    if reps < 100:
        raise ConfigurationError(f"need at least 100 replications, got {reps}")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if config.step_size <= 0.0:
        raise ConfigurationError("stationary runs need a positive step size")
    burn = math.ceil(20.0 / config.step_size)
    states, scores = simulate_hmm_batch(spec, burn + horizon, reps, rng)
    # Each float array is (reps, burn + horizon); dropping it once used
    # lowers peak memory by one such array.
    levels, strict = exceedance_levels(qhat, scores)
    del scores
    _, errs = run_level_batch(config, levels, strict)
    del levels
    tail_states, tail_errs = states[:, burn:], errs[:, burn:]
    means = np.empty(spec.n_states)
    ses = np.empty(spec.n_states)
    for a in range(spec.n_states):
        mask = tail_states == a
        n_a = int(mask.sum())
        if n_a == 0:
            raise DomainError(f"state {a} was never visited; increase reps or horizon")
        m = float(tail_errs[mask].mean())
        means[a] = m
        ses[a] = math.sqrt(max(m * (1.0 - m), 1e-12) / n_a)
    pi = stationary_distribution(spec.transition)
    dev = means - config.target_miscoverage
    estimate = BiasEstimate(
        b_hat=float(np.max(np.abs(dev))),
        sigma_b2_hat=float(np.sum(pi * dev**2)),
        per_state_err_mean=means,
        per_state_se=ses,
        stationary=pi,
        n_samples=tail_errs.size,
    )
    return estimate, tail_errs


@dataclass(frozen=True)
class TheoryReport:
    """Everything the simulation harness knows about one HMM configuration."""

    b_hat: float
    sigma_b2_hat: float
    spectral_gap: float
    alpha_star_by_state: np.ndarray
    bound_values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.sigma_b2_hat > self.b_hat**2 + 1e-12:
            raise ConfigurationError("mean-square bias cannot exceed the worst-state bias squared")
        if not 0.0 < self.spectral_gap <= 1.0:
            raise ConfigurationError(f"spectral gap must lie in (0, 1], got {self.spectral_gap}")


def oracle_level_step_mean(spec: HmmSpec, alpha_star: np.ndarray) -> float:
    """Exact stationary mean of |alpha*_{A_{t+1}} - alpha*_{A_t}| for the chain."""
    pi = stationary_distribution(spec.transition)
    diff = np.abs(alpha_star[:, None] - alpha_star[None, :])
    return float(np.sum(pi[:, None] * spec.transition * diff))


def theory_suite(
    spec: HmmSpec,
    qhat: FixedQuantileFn,
    config: core.AciConfig,
    reps: int,
    horizon: int,
    epsilons,
    rng: np.random.Generator,
    lipschitz: float = 1.0,
) -> TheoryReport:
    """Monte-Carlo estimates next to the closed-form bounds they must obey.

    One batched stationary run (burn-in discarded) feeds both the bias
    plug-ins and the per-replication exceedance frequencies; the bound values
    use the analytic spectral gap and oracle-level shift of the chain.
    """
    alpha = config.target_miscoverage
    bias, tail_errs = _stationary_bias(spec, qhat, config, reps, horizon, rng)
    b_hat, sigma_b2_hat = bias.b_hat, bias.sigma_b2_hat

    gap = spectral_gap(spec.transition)
    alpha_star = per_state_alpha_star(spec, qhat, alpha)
    delta_mean = oracle_level_step_mean(spec, alpha_star)

    rep_means = tail_errs.mean(axis=1)
    values: dict[str, float] = {
        "delta_alpha_star_mean": delta_mean,
        "regret_rhs": bounds.regret_rhs(lipschitz, config.step_size, delta_mean),
        "gamma_star": bounds.gamma_star(delta_mean),
    }
    for eps in epsilons:
        values[f"large_deviation_rhs_eps_{eps:g}"] = bounds.large_deviation_rhs(
            horizon, eps, 1.0 - gap, sigma_b2_hat, b_hat
        )
        values[f"empirical_exceedance_eps_{eps:g}"] = float(
            np.mean(np.abs(rep_means - alpha) >= eps)
        )
    return TheoryReport(
        b_hat=b_hat,
        sigma_b2_hat=sigma_b2_hat,
        spectral_gap=gap,
        alpha_star_by_state=alpha_star,
        bound_values=values,
    )
