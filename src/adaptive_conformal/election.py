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

import numpy as np
from scipy.optimize import linprog, minimize

from . import core
from .conformal import CqrScore, PredictionInterval, empirical_quantile
from .errors import ConfigurationError, DegenerateDataError, DomainError, NoDataError
from .metrics import TrajectoryReport, replay

logger = logging.getLogger(__name__)

RIDGE_PENALTY = 1e-8


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

    def predict(self, design) -> np.ndarray:
        design = np.atleast_2d(np.asarray(design, dtype=float))
        return self.intercept + design @ self.coefficients


def fit_quantile_regression(design, responses, level: float) -> QrModel:
    """Minimize the mean pinball loss of ``responses - intercept - design @ beta``.

    Full-rank designs are solved exactly as a linear program. Rank-deficient
    designs (common on small random splits) fall back to a smoothed objective
    with a tiny ridge penalty and are flagged ``regularized``.
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
    if np.linalg.matrix_rank(design1) < d + 1:
        logger.warning("rank-deficient design (n=%d, d=%d); using ridge fallback", n, d)
        return _fit_ridge_smoothed(design1, responses, level)

    # Dual of the pinball LP: max responses @ lam subject to design1.T @ lam = 0
    # and lam in [level - 1, level]; the coefficient vector is recovered from
    # the equality-constraint multipliers.
    res = linprog(
        -responses,
        A_eq=design1.T,
        b_eq=np.zeros(d + 1),
        bounds=[(level - 1.0, level)] * n,
        method="highs",
    )
    if not res.success:
        raise DegenerateDataError(f"quantile-regression LP failed: {res.message}")
    beta = -np.asarray(res.eqlin.marginals, dtype=float)
    return QrModel(level=level, intercept=float(beta[0]), coefficients=beta[1:].copy())


def _fit_ridge_smoothed(design1, responses, level):
    """Ridge-penalized pinball fit via a mildly smoothed objective."""
    n, d1 = design1.shape
    kappa = 1e-7 * max(1.0, float(np.std(responses)))

    def objective(beta):
        resid = responses - design1 @ beta
        # Quadratic smoothing of the kink inside |resid| < kappa.
        abs_r = np.abs(resid)
        smooth = np.where(abs_r <= kappa, resid**2 / (2 * kappa) + kappa / 2, abs_r)
        loss = float(np.mean(0.5 * smooth + (level - 0.5) * resid))
        return loss + RIDGE_PENALTY * float(np.sum(beta[1:] ** 2))

    beta0 = np.zeros(d1)
    beta0[0] = float(np.quantile(responses, level))
    res = minimize(objective, beta0, method="Powell", options={"maxiter": 5000, "xtol": 1e-10})
    beta = res.x
    return QrModel(
        level=level, intercept=float(beta[0]), coefficients=beta[1:].copy(), regularized=True
    )


def sample_ordering(populations, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Permutation from sequential sampling without replacement, weight exp(sigma * pop).

    Uses perturbed sort keys ``sigma * pop + Gumbel`` so huge weights never
    overflow; ``sigma = inf`` degenerates to the descending-population order
    with stable ties.
    """
    populations = np.asarray(populations, dtype=float)
    if populations.size == 0:
        raise NoDataError("empty population vector")
    if not sigma >= 0.0:
        raise DomainError(f"sigma must be nonnegative, got {sigma}")
    if math.isinf(sigma):
        return np.argsort(-populations, kind="stable")
    keys = sigma * populations + rng.gumbel(size=populations.size)
    return np.argsort(-keys, kind="stable")


@dataclass(frozen=True)
class CountyRecord:
    """One county: identifiers, covariates, and current/previous vote totals."""

    id: str
    population: float
    covariates: np.ndarray
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
        object.__setattr__(self, "covariates", np.asarray(self.covariates, dtype=float))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountyRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.population == other.population
            and np.array_equal(self.covariates, other.covariates)
            and self.y_prev == other.y_prev
            and self.y == other.y
        )

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


def _standardize(train):
    mean = train.mean(axis=0)
    scale = train.std(axis=0)
    scale[scale == 0.0] = 1.0
    return mean, scale


@dataclass(frozen=True)
class CqrStep:
    """Per-county CQR state once the quantile models and split are fixed.

    Everything here is independent of the adaptive level, so one stream can
    be replayed under several calibration policies.
    """

    label: str
    y_prev: float
    residual: float
    q_lo: float
    q_hi: float
    cal_scores: np.ndarray


def cqr_prediction_stream(
    counties: list[CountyRecord],
    ordering,
    alpha: float,
    warmup: int = 500,
    cal_frac: float = 0.25,
    refit_every: int = 1,
    rng: np.random.Generator | None = None,
) -> list[CqrStep]:
    """Quantile fits and calibration scores for every prediction step.

    Predictions start once ``warmup`` counties have been observed. Each refit
    draws a fresh random train/calibration split of all observed counties,
    fits lower/upper quantile models at alpha/2 and 1 - alpha/2 on
    standardized covariates, and scores the calibration set.
    """
    if rng is None:
        rng = np.random.default_rng()
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
    residuals = np.array([c.residual for c in seq])

    steps: list[CqrStep] = []
    lo_model = hi_model = None
    cal_scores = None
    mean = scale = None
    for t in range(warmup, n):
        if (t - warmup) % refit_every == 0:
            n_train = int(math.floor(t * (1.0 - cal_frac)))
            perm = rng.permutation(t)
            train_idx, cal_idx = perm[:n_train], perm[n_train:]
            mean, scale = _standardize(design[train_idx])
            x_train = (design[train_idx] - mean) / scale
            lo_model = fit_quantile_regression(x_train, residuals[train_idx], alpha / 2.0)
            hi_model = fit_quantile_regression(x_train, residuals[train_idx], 1.0 - alpha / 2.0)
            x_cal = (design[cal_idx] - mean) / scale
            q_lo_cal = lo_model.predict(x_cal)
            q_hi_cal = hi_model.predict(x_cal)
            cal_scores = np.maximum(q_lo_cal - residuals[cal_idx], residuals[cal_idx] - q_hi_cal)
        x_t = (design[t] - mean) / scale
        steps.append(
            CqrStep(
                label=seq[t].id,
                y_prev=seq[t].y_prev,
                residual=residuals[t],
                q_lo=float(lo_model.predict(x_t)[0]),
                q_hi=float(hi_model.predict(x_t)[0]),
                cal_scores=cal_scores,
            )
        )
    return steps


def replay_prediction_stream(steps: list[CqrStep], aci_config: core.AciConfig) -> TrajectoryReport:
    """Run the adaptive-level recursion over a precomputed CQR stream.

    Vote intervals are the affine image of the residual interval through
    ``y = y_prev * (1 + r)``.
    """
    contexts = [CqrScore(step.q_lo, step.q_hi) for step in steps]

    def vote_interval(t: int, threshold: float) -> PredictionInterval:
        r_interval = contexts[t].interval(threshold)
        if r_interval.is_empty:
            return r_interval
        y_prev = steps[t].y_prev
        return PredictionInterval(
            y_prev * (1.0 + r_interval.lower), y_prev * (1.0 + r_interval.upper)
        )

    return replay(
        aci_config,
        [ctx.score(step.residual) for ctx, step in zip(contexts, steps)],
        lambda t, p: empirical_quantile(steps[t].cal_scores, p),
        vote_interval,
        [step.label for step in steps],
    )


def run_election_experiment(
    counties: list[CountyRecord],
    ordering,
    aci_config: core.AciConfig,
    warmup: int = 500,
    cal_frac: float = 0.25,
    refit_every: int = 1,
    rng: np.random.Generator | None = None,
) -> TrajectoryReport:
    """Sequential CQR over counties in the given order, with adaptive level."""
    steps = cqr_prediction_stream(
        counties,
        ordering,
        aci_config.target_miscoverage,
        warmup=warmup,
        cal_frac=cal_frac,
        refit_every=refit_every,
        rng=rng,
    )
    return replay_prediction_stream(steps, aci_config)
