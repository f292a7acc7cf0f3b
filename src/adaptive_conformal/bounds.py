"""Closed-form evaluators for the coverage guarantees.

These are direct transcriptions of the bound formulas so simulations can be
checked against them numerically; none of them runs a simulation itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def large_deviation_rhs(
    horizon: int, epsilon: float, eta: float, sigma_b2: float, b: float
) -> float:
    """Tail bound on |mean error - target| for a mixing environment chain.

    Two exponential terms: a Hoeffding-rate term from the self-stabilizing
    level updates, and a Bernstein-for-Markov-chains term controlled by the
    spectral gap ``1 - eta`` and the bias moments.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and positive, got {epsilon}")
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"eta must lie in [0, 1), got {eta}")
    if sigma_b2 < 0.0 or b < 0.0:
        raise DomainError("bias moments must be nonnegative")
    first = 2.0 * math.exp(-horizon * epsilon**2 / 8.0)
    denom = 8.0 * (1.0 + eta) * sigma_b2 + 40.0 * b * epsilon
    if denom == 0.0:
        second = 0.0
    else:
        second = 2.0 * math.exp(-horizon * (1.0 - eta) * epsilon**2 / denom)
    return first + second


def regret_rhs(lipschitz: float, gamma: float, delta_mean: float) -> float:
    """Bound on the mean-square gap between realized and target miscoverage.

    ``delta_mean`` is the expected one-step movement of the per-state oracle
    level, the natural size of the distribution shift.
    """
    if not 0.0 < lipschitz < math.inf:
        raise DomainError(f"lipschitz must be finite and positive, got {lipschitz}")
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if delta_mean < 0.0:
        raise DomainError(f"delta_mean must be nonnegative, got {delta_mean}")
    return lipschitz * (1.0 + gamma) / gamma * delta_mean + lipschitz * gamma / 2.0


def gamma_star(delta_mean: float) -> float:
    """Step size minimizing the regret bound: sqrt(2 * delta_mean)."""
    if delta_mean < 0.0:
        raise DomainError(f"delta_mean must be nonnegative, got {delta_mean}")
    return math.sqrt(2.0 * delta_mean)


def ideal_expectation(t: int, alpha1: float, gamma: float, alpha: float) -> float:
    """Expected error rate at step t when the quantile function is exact.

    The self-correcting recursion contracts the initialization gap
    geometrically: alpha + (1 - gamma)^(t-1) * (alpha1 - alpha).
    """
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    return alpha + (1.0 - gamma) ** (t - 1) * (alpha1 - alpha)


def lattice_check(alphas, alpha: float, gamma: float, tol: float = 1e-9) -> bool:
    """True when every level sits on the lattice {alpha + k * gamma * alpha}.

    The lattice is invariant under the simple update whenever (1 - alpha) /
    alpha is an integer, so drifting off it signals numerical trouble.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    alphas = np.asarray(alphas, dtype=float)
    spacing = gamma * alpha
    k = np.round((alphas - alpha) / spacing)
    return bool(np.all(np.abs(alphas - (alpha + k * spacing)) <= tol))
