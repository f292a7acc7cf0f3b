"""Finite-state hidden-Markov testbed for the coverage theory.

The environment is a Markov chain; conditional on the state, scores are
independent normals with per-state mean and scale. The score-quantile
function is held fixed across time, which makes every theoretical quantity
(per-state oracle levels, bias terms, spectral gap) computable and lets long
Monte Carlo runs validate the concentration and regret bounds numerically.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from . import bounds, core
from .core import run_level_batch  # noqa: F401  (re-exported: c01-c07 import it from here)
from .errors import ConfigurationError, DomainError, ErgodicityError, NonReversibleChainError

logger = logging.getLogger(__name__)

REVERSIBILITY_TOL = 1e-9

#: Time steps per block of a batched run: every array the theory suite builds is
#: at most (reps, BLOCK), whatever the run length.
BLOCK = 512


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


def _blocks(spec: HmmSpec, steps: int, reps: int, rng: np.random.Generator):
    """``reps`` stationary paths of ``steps`` steps, yielded BLOCK steps at a time.

    Yields (t0, states, scores), both (b, reps) and time-major, for steps t0 to
    t0 + b - 1. Each block draws its b * reps uniforms, then its b * reps normals.
    The chain starts one step before step 0 from its stationary law, so every
    step is a transition. A step counts the first n - 1 cumulative columns of the
    previous state's row below its uniform; the last state is the fall-through,
    which a one-state chain never leaves.
    """
    cols = np.cumsum(spec.transition, axis=1)[:, :-1].T.copy()
    dtype = np.min_scalar_type(spec.n_states - 1)
    pi = stationary_distribution(spec.transition)
    prev = rng.choice(spec.n_states, size=reps, p=pi).astype(dtype)
    for t0 in range(0, steps, BLOCK):
        b = min(BLOCK, steps - t0)
        uniforms = rng.random((b, reps))
        states = np.zeros((b, reps), dtype=dtype)
        for state, u in zip(states, uniforms):
            for col in cols:
                state += col[prev] < u
            prev = state
        scores = rng.standard_normal((b, reps))
        with np.errstate(over="ignore"):  # huge scores overflow; exceedance_levels rejects them
            scores *= spec.score_scales[states]
            scores += spec.score_means[states]
        yield t0, states, scores


def simulate_hmm_batch(
    spec: HmmSpec, horizon: int, reps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``reps`` independent paths advanced in lockstep; shapes (reps, horizon).

    The ``_blocks`` stream joined: the arrays are time-major in memory.
    """
    if horizon < 1 or reps < 1:
        raise ConfigurationError("horizon and reps must be >= 1")
    states = np.empty((horizon, reps), dtype=np.min_scalar_type(spec.n_states - 1))
    scores = np.empty((horizon, reps))
    for t0, block_states, block_scores in _blocks(spec, horizon, reps, rng):
        states[t0 : t0 + len(block_states)] = block_states
        scores[t0 : t0 + len(block_scores)] = block_scores
    return states.T, scores.T


@dataclass(frozen=True)
class NormalQuantile:
    """The fixed score-quantile function ``mean + scale * ndtri(p)``."""

    mean: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ConfigurationError(f"mean must be finite, got {self.mean}")
        if not 0.0 < self.scale < math.inf:
            raise ConfigurationError(f"scale must be finite and positive, got {self.scale}")


def exceedance_levels(
    qhat: NormalQuantile, scores, first_step: int = 1
) -> tuple[np.ndarray, bool]:
    """Per-score levels u, the qhat-CDF of the score, with {score > qhat(p)} = {u > p}.

    This turns the per-step error indicator into a single float comparison. The
    comparison is strict, so the flag is always True. A non-finite score raises
    ``DomainError`` naming the first one's (replication, step), 1-based; a row is
    replication 1, and column 0 is step ``first_step`` (a time block of a longer run).
    """
    scores = np.asarray(scores, dtype=float)
    # min and max propagate NaN and reach +-inf without a (reps, horizon) temporary.
    if not (math.isfinite(scores.min(initial=0.0)) and math.isfinite(scores.max(initial=0.0))):
        rows = np.atleast_2d(scores)
        rep, step = np.argwhere(~np.isfinite(rows))[0]
        raise DomainError(f"scores must be finite; replication {rep + 1}, "
                          f"step {first_step + step} is {rows[rep, step]}")
    with np.errstate(over="ignore"):  # an overflow to +-inf has level 1 or 0, as it should
        u = scores - qhat.mean
        u /= qhat.scale
    return ndtr(u, out=u), True


def per_state_alpha_star(spec: HmmSpec, qhat: NormalQuantile, alpha: float) -> np.ndarray:
    """Per-state level alpha* at which ``P(score > qhat(1 - alpha*)) = alpha``.

    A step misses when its exceedance level passes ``1 - alpha_t``, so alpha* is one
    minus the exceedance level of the state's own ``1 - alpha`` score quantile.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    levels, _ = exceedance_levels(qhat, spec.score_means + spec.score_scales * ndtri(1.0 - alpha))
    return 1.0 - levels


@dataclass(frozen=True)
class BiasEstimate:
    """Monte-Carlo plug-in for the per-state coverage bias terms."""

    b_hat: float
    sigma_b2_hat: float
    per_state_err_mean: np.ndarray
    per_rep_err_mean: np.ndarray


def estimate_bias_terms(
    spec: HmmSpec,
    qhat: NormalQuantile,
    config: core.AciConfig,
    reps: int,
    rng: np.random.Generator,
    horizon: int = 2000,
) -> BiasEstimate:
    """Plug-in estimates of the worst-state and mean-square coverage bias.

    Runs ``reps`` batched replications, each discarding a burn-in of
    ceil(20 / gamma) steps so the (level, state) pair is close to stationarity,
    then averages error bits by state across all replications, and by
    replication across all states. The max estimate is biased upward by noise.
    One pass over ``_blocks`` simulates, levels and counts each time block in
    turn, so memory is O(reps * BLOCK) however long the run.
    """
    if reps < 100:
        raise ConfigurationError(f"need at least 100 replications, got {reps}")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if config.step_size <= 0.0:
        raise ConfigurationError("stationary runs need a positive step size")
    burn = 20.0 / config.step_size
    # Bounds the step count, not an array's size (no array holds a whole run): the
    # burn-in is finite and every count fits in int64.
    if not reps * (burn + horizon) <= np.iinfo(np.int64).max:
        raise ConfigurationError(f"a burn-in of 20 / gamma = {burn:g} steps is too long")
    burn = math.ceil(burn)
    n = spec.n_states
    state_errs, visits, rep_errs = np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(reps)
    carry = (np.full(reps, float(config.initial_level)), 0.0, 0.0)
    blocks = -(-(burn + horizon) // BLOCK)
    logger.info("bias terms: reps=%d burn_in=%d horizon=%d blocks=%d", reps, burn, horizon, blocks)
    for t0, states, scores in _blocks(spec, burn + horizon, reps, rng):
        logger.debug("block %d of %d: from step %d", t0 // BLOCK + 1, blocks, t0 + 1)
        levels, strict = exceedance_levels(qhat, scores.T, first_step=t0 + 1)
        _, errs, carry = core.run_level_steps(config, levels, strict, carry)
        tail = max(burn - t0, 0)  # the block's first step after the burn-in, if any
        tail_states, tail_errs = states[tail:].ravel(), errs.T[tail:]  # time-major
        state_errs += np.bincount(tail_states, tail_errs.ravel(), n)
        visits += np.bincount(tail_states, minlength=n)
        rep_errs += tail_errs.sum(axis=0)
    if not visits.all():
        a = int(np.argmin(visits))
        raise DomainError(f"state {a} was never visited; increase reps or horizon")
    means = state_errs / visits
    pi = stationary_distribution(spec.transition)
    dev = means - config.target_miscoverage
    bias = BiasEstimate(float(np.max(np.abs(dev))), float(np.sum(pi * dev**2)), means,
                        rep_errs / horizon)
    logger.info("bias terms: b_hat=%.6g sigma_b2_hat=%.6g", bias.b_hat, bias.sigma_b2_hat)
    return bias


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
    qhat: NormalQuantile,
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
    for name, value in [*(("epsilon", eps) for eps in epsilons), ("lipschitz", lipschitz)]:
        if not 0.0 < value < math.inf:  # ``bounds`` rejects it too, after the simulation
            raise DomainError(f"{name} must be finite and positive, got {value}")
    alpha = config.target_miscoverage
    bias = estimate_bias_terms(spec, qhat, config, reps, rng, horizon)
    b_hat, sigma_b2_hat = bias.b_hat, bias.sigma_b2_hat

    gap = spectral_gap(spec.transition)
    alpha_star = per_state_alpha_star(spec, qhat, alpha)
    delta_mean = oracle_level_step_mean(spec, alpha_star)

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
            np.mean(np.abs(bias.per_rep_err_mean - alpha) >= eps)
        )
    return TheoryReport(
        b_hat=b_hat,
        sigma_b2_hat=sigma_b2_hat,
        spectral_gap=gap,
        alpha_star_by_state=alpha_star,
        bound_values=values,
    )
