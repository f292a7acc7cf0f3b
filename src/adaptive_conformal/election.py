"""Election-night style CQR pipeline with biased county orderings.

Counties are revealed one at a time in an order sampled without replacement
with weight exp(sigma * population), so larger sigma concentrates big
counties at the front and induces a drift in the residual distribution. Each
step refits linear quantile regressions on a random 75/25 train/calibration
split of everything observed so far, scores the calibration set with the CQR
score, and thresholds at the (adaptively calibrated) score quantile.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import linprog  # noqa: F401  (perfbench/tracer.py rebinds election.linprog)

from . import core
from .conformal import CqrScore, PredictionInterval, calibration_scores
from .conformal import empirical_quantile  # noqa: F401  (perfbench/tracer.py wraps it here)
from .errors import (ConfigurationError, ConvergenceError, DomainError, ExperimentAborted,
                     NoDataError)
from .metrics import TrajectoryReport, replay

logger = logging.getLogger(__name__)

GAP_TOL = 1e-9
MAX_ITERATIONS = 100


def pinball_loss(residual, level: float):
    """Asymmetric check loss whose minimizer is the level-th quantile."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")
    u = np.asarray(residual, dtype=float)
    out = np.where(u >= 0.0, level * u, (level - 1.0) * u)
    return float(out) if np.isscalar(residual) else out


@dataclass(frozen=True)
class QrModel:
    """Linear conditional-quantile model ``intercept + design @ coefficients``."""

    level: float
    intercept: float
    coefficients: np.ndarray
    regularized: bool = False
    iterations: int = 0

    def predict(self, design) -> np.ndarray:
        return self.intercept + np.asarray(design, dtype=float) @ self.coefficients


def fit_quantile_regression(design, responses, level: float) -> QrModel:
    """Minimize the mean pinball loss of ``responses - intercept - design @ beta``.

    Frisch-Newton interior point (R's ``quantreg::rq.fit.fnb``) on the dual LP
    over ``lam`` in ``[level - 1, level]`` with ``design1.T @ lam = 0``; beta is
    minus its multipliers. Stops at a duality gap of ``GAP_TOL * sum(|responses|)``
    or raises ``ConvergenceError``; a rank-deficient design is flagged ``regularized``.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    responses = np.asarray(responses, dtype=float)
    n, d = design.shape
    if responses.shape != (n,):
        raise ConfigurationError("responses must be one value per design row")
    if n < d + 1:
        raise NoDataError(f"need at least d + 1 = {d + 1} rows, got {n}")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")
    design1 = np.column_stack([np.ones(n), design])
    x, s = np.full(n, 1.0 - level), np.full(n, level)  # x = lam + 1 - level in [0, 1]; s = 1 - x
    # Start from the least-squares dual point; its residual splits into z - w.
    dual, _, rank, _ = np.linalg.lstsq(design1, -responses, rcond=None)
    if rank < d + 1:
        logger.warning("rank-deficient design (n=%d, d=%d); coefficients are not unique", n, d)
    r = -responses - design1 @ dual
    shift = 0.1 * float(np.mean(np.abs(r)))  # off the boundary, and better centred
    z, w = np.maximum(r, 0.0) + shift, np.maximum(-r, 0.0) + shift
    tol = GAP_TOL * float(np.sum(np.abs(responses)))
    # Overflow and 0 / 0 are caught where they matter: the gap test fails on NaN and a
    # non-finite normal matrix fails the positive-definiteness check.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for iterations in range(MAX_ITERATIONS + 1):
            resid = responses + design1 @ dual  # responses - design1 @ beta
            if np.sum(np.maximum(resid, 0.0)) - x @ resid <= tol:  # gap of beta and lam; NaN fails
                break
            if iterations == MAX_ITERATIONS:
                raise ConvergenceError(f"no convergence in {iterations} iterations", best=-dual)
            xi, si = 1.0 / x, 1.0 / s
            q = 1.0 / (z * xi + w * si)
            normal = (design1.T * q) @ design1
            normal[np.diag_indices(d + 1)] += 1e-12 * np.trace(normal) / (d + 1)
            factor, info = dpotrf(normal)
            if info:
                raise ConvergenceError("normal matrix is not positive definite", best=-dual)
            # Predictor: the affine direction; it also restores design1.T @ lam = 0.
            rhs = (q * (z - w) - x + 1.0 - level) @ design1
            dy = dpotrs(factor, rhs)[0]
            dx = q * (design1 @ dy - z + w)
            dz, dw = -z * (dx * xi + 1.0), w * (dx * si - 1.0)
            fp, fd = _max_step((x, dx), (s, -dx)), _max_step((z, dz), (w, dw))
            if min(fp, fd) < 1.0:
                # Corrector: Mehrotra's centring target mu plus the second-order terms.
                mu = x @ z + s @ w
                g = (x + fp * dx) @ (z + fd * dz) + (s - fp * dx) @ (w + fd * dw)
                mu *= (g / mu) ** 3 / (2 * n)
                dxdz, dsdw = dx * dz, -dx * dw
                dr = q * (mu * (si - xi) + dxdz * xi - dsdw * si)
                dy = dpotrs(factor, rhs + dr @ design1)[0]
                dx = q * (design1 @ dy - z + w) - dr
                dz, dw = (mu - dxdz - z * dx) * xi - z, (mu - dsdw + w * dx) * si - w
                fp, fd = _max_step((x, dx), (s, -dx)), _max_step((z, dz), (w, dw))
            x, s = x + fp * dx, s - fp * dx
            dual, z, w = dual + fd * dy, z + fd * dz, w + fd * dw
    return QrModel(level=level, intercept=-float(dual[0]), coefficients=-dual[1:],
                   regularized=rank < d + 1, iterations=iterations)


def _max_step(*pairs) -> float:
    """0.99995 (as in rq.fit.fnb) of the step to the first ``v + step * dv = 0``, at most 1."""
    peak = max(float(np.max(-dv / v)) for v, dv in pairs)  # the inverse of that step
    return 0.99995 / max(peak, 0.99995)


def sample_ordering(populations, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Permutation from sequential sampling without replacement, weight exp(sigma * pop).

    Uses perturbed sort keys ``sigma * pop + Gumbel`` so huge weights never
    overflow; ``sigma = inf`` degenerates to the descending-population order
    with stable ties, and so does a sigma at which ``sigma * pop`` overflows,
    since the noise is then far below the keys' resolution.
    """
    populations = np.asarray(populations, dtype=float)
    if populations.size == 0:
        raise NoDataError("empty population vector")
    if not sigma >= 0.0:
        raise DomainError(f"sigma must be nonnegative, got {sigma}")
    if math.isinf(sigma) or math.isinf(sigma * float(np.max(np.abs(populations)))):
        return np.argsort(-populations, kind="stable")
    keys = sigma * populations + rng.gumbel(size=populations.size)
    return np.argsort(-keys, kind="stable")


@dataclass(frozen=True)
class CountyRecord:
    """One county: identifiers, covariates, and current/previous vote totals."""

    id: str
    population: float
    covariates: tuple[float, ...]
    y_prev: float
    y: float

    def __post_init__(self):
        if not self.population > 0.0:
            raise ConfigurationError(f"population must be positive, got {self.population}")
        if not self.y_prev > 0.0:
            raise ConfigurationError(
                f"previous vote count must be positive, got {self.y_prev}"
            )
        if self.y < 0.0:
            raise ConfigurationError(f"vote count must be nonnegative, got {self.y}")
        object.__setattr__(self, "covariates", tuple(map(float, self.covariates)))

    @property
    def residual(self) -> float:
        return (self.y - self.y_prev) / self.y_prev


def generate_synthetic_counties(n: int, d: int = 11, seed: int = 0) -> list[CountyRecord]:
    """Synthetic county table whose residual distribution drifts with population.

    Populations are log-normal; covariates are noisy linear probes of
    log-population; the relative vote residual combines a curved trend in
    log-population (so a linear fit extrapolates poorly into either tail)
    with noise whose scale grows with population. Ordering counties by
    population therefore yields a genuinely shifting score distribution.
    """
    if n < 0 or d < 1:
        raise ConfigurationError("need n >= 0 counties and d >= 1 covariates")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)  # standardized log-population
    population = np.exp(10.0 + 1.1 * z)
    loadings = 0.35 + 0.5 * rng.random(d)
    covariates = loadings * z[:, None] + np.sqrt(1.0 - loadings**2) * rng.standard_normal((n, d))
    trend_coef = rng.normal(scale=0.02, size=d)
    trend = covariates @ trend_coef + 0.08 * z - 0.10 * z**2
    noise_scale = 0.02 + 0.05 / (1.0 + np.exp(-1.5 * z))  # grows with population
    residual = trend + noise_scale * rng.standard_normal(n)
    y_prev = np.maximum(1.0, population * rng.uniform(0.25, 0.45, size=n))
    y = np.maximum(0.0, y_prev * (1.0 + residual))
    return [
        CountyRecord(
            id=f"county-{i:05d}",
            population=float(population[i]),
            covariates=covariates[i],
            y_prev=float(y_prev[i]),
            y=float(y[i]),
        )
        for i in range(n)
    ]


class CqrStream(NamedTuple):
    """Level-independent CQR columns, one entry per prediction step.

    Step ``k`` predicts county ``labels[k]`` with residual quantile pair
    ``(q_lo[k], q_hi[k])`` and is calibrated on
    ``cal_scores[k // refit_every]``, the scores of the fit in force. Nothing
    here depends on the adaptive level, so one stream can be replayed under
    several calibration policies.
    """

    labels: tuple[str, ...]
    y_prev: np.ndarray
    residual: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray
    cal_scores: list[np.ndarray]
    refit_every: int


def cqr_prediction_stream(
    counties: list[CountyRecord],
    ordering,
    alpha: float,
    warmup: int = 500,
    cal_frac: float = 0.25,
    refit_every: int = 1,
    *,
    rng: np.random.Generator,
) -> CqrStream:
    """Quantile fits and calibration scores for every prediction step.

    Predictions start once ``warmup`` counties have been observed. Each refit
    draws a fresh random train/calibration split of all observed counties,
    fits lower/upper quantile models at alpha/2 and 1 - alpha/2 on
    standardized covariates, scores the calibration set with ``CqrScore``,
    and predicts the quantile pairs of the steps up to the next refit. A fit
    that does not converge raises ``ExperimentAborted`` naming the refit's step.
    """
    if refit_every < 1:
        raise ConfigurationError("refit_every must be >= 1")
    if not 0.0 < cal_frac < 1.0:
        raise ConfigurationError(f"cal_frac must lie in (0, 1), got {cal_frac}")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    ordering = np.asarray(ordering, dtype=int)
    if sorted(ordering.tolist()) != list(range(len(counties))):
        raise ConfigurationError("ordering must be a permutation of the county indices")
    n = len(counties)
    if n < warmup + 1:
        raise NoDataError(f"need more than warmup = {warmup} counties, got {n}")

    seq = [counties[i] for i in ordering]
    design = np.array([c.covariates for c in seq])
    # The first refit has the fewest observed counties to split.
    first_train, d = math.floor(warmup * (1.0 - cal_frac)), design.shape[-1]
    if first_train < d + 1 or first_train >= warmup:
        raise ConfigurationError(
            f"warmup = {warmup} with cal_frac = {cal_frac} splits the first refit into "
            f"{first_train} training and {warmup - first_train} calibration rows; need at "
            f"least d + 1 = {d + 1} and 1")
    residuals = np.array([c.residual for c in seq])
    q_lo, q_hi = np.empty(n), np.empty(n)
    cal_scores = []
    for start in range(warmup, n, refit_every):
        n_train = int(math.floor(start * (1.0 - cal_frac)))
        perm = rng.permutation(start)
        train_idx, cal_idx = perm[:n_train], perm[n_train:]
        train = design[train_idx]
        mean, scale = train.mean(axis=0), train.std(axis=0)
        scale[scale == 0.0] = 1.0
        x_train = (train - mean) / scale
        try:
            lo_model = fit_quantile_regression(x_train, residuals[train_idx], alpha / 2.0)
            hi_model = fit_quantile_regression(x_train, residuals[train_idx], 1.0 - alpha / 2.0)
        except ConvergenceError as exc:
            raise ExperimentAborted(
                f"quantile-regression refit failed at step {start - warmup}: {exc}") from exc
        x_cal = (design[cal_idx] - mean) / scale
        cal = CqrScore(lo_model.predict(x_cal), hi_model.predict(x_cal))
        cal_scores.append(cal.score(residuals[cal_idx]))
        x_next = (design[start : start + refit_every] - mean) / scale
        q_lo[start : start + refit_every] = lo_model.predict(x_next)
        q_hi[start : start + refit_every] = hi_model.predict(x_next)
        logger.info("refit at step %d: lower_iterations=%d upper_iterations=%d rank_deficient=%s",
                    start - warmup, lo_model.iterations, hi_model.iterations, lo_model.regularized)
    predicted = seq[warmup:]
    return CqrStream(tuple(c.id for c in predicted), np.array([c.y_prev for c in predicted]),
                     residuals[warmup:], q_lo[warmup:], q_hi[warmup:], cal_scores, refit_every)


def replay_prediction_stream(stream: CqrStream, aci_config: core.AciConfig) -> TrajectoryReport:
    """Run the adaptive-level recursion over a precomputed CQR stream.

    ``replay`` maps each threshold to its vote interval: the affine image of the
    residual interval through ``y = y_prev * (1 + r)``. As ``y_prev > 0`` it maps an
    empty ``(inf, -inf)`` entry to itself.
    """
    residual_sets = CqrScore(stream.q_lo, stream.q_hi)
    sets = [np.sort(calibration_scores(s)).tolist() for s in stream.cal_scores]

    def vote_sets(thresholds) -> PredictionInterval:
        r = residual_sets.interval(thresholds)
        return PredictionInterval(stream.y_prev * (1.0 + r.lower), stream.y_prev * (1.0 + r.upper))

    return replay(aci_config, residual_sets.score(stream.residual),
                  lambda: (sets[k // stream.refit_every] for k in range(len(stream.labels))),
                  vote_sets, stream.labels)

