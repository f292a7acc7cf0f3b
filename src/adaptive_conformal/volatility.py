"""GARCH(1,1) forecasting and the rolling-window volatility pipeline.

The pipeline walks a daily price series: returns are squared into realized
volatility, a GARCH(1,1) model fit on the trailing window produces the
one-step variance forecast, the relative forecast error is the conformity
score, and the score-quantile threshold over the trailing window of past
scores defines the prediction interval whose level is recalibrated online.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from . import core
from .conformal import NormalizedScore, empirical_quantile
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    ExperimentAborted,
    NoDataError,
)
from .metrics import TrajectoryReport, replay

logger = logging.getLogger(__name__)

SIGMA2_FLOOR = 1e-12
MIN_FIT_LENGTH = 30
GRADIENT_TOL = 1e-5
OMEGA_GAIN_TOL = 1e-3
MAX_ITER = 500


@dataclass(frozen=True)
class GarchParams:
    """Covariance-stationary GARCH(1,1) coefficients.

    The conditional variance follows
    ``sigma2_t = omega + arch_coef * r_{t-1}^2 + garch_coef * sigma2_{t-1}``.
    """

    omega: float
    arch_coef: float
    garch_coef: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        if self.arch_coef < 0.0 or self.garch_coef < 0.0:
            raise ConfigurationError("arch_coef and garch_coef must be nonnegative")
        if not self.arch_coef + self.garch_coef < 1.0:
            raise ConfigurationError(
                "arch_coef + garch_coef must be < 1 for stationarity, got "
                f"{self.arch_coef + self.garch_coef}"
            )

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.arch_coef - self.garch_coef)


@dataclass(frozen=True)
class GarchFit:
    params: GarchParams
    sigma2_path: np.ndarray
    neg_loglik: float
    iterations: int  # BFGS iterations over all starting points


def returns_from_prices(prices) -> np.ndarray:
    """Simple returns (P_t - P_{t-1}) / P_{t-1}."""
    prices = np.asarray(prices, dtype=float)
    if prices.size < 2:
        raise NoDataError("need at least two prices to form a return")
    if not np.all(prices > 0.0):
        raise DomainError("prices must be strictly positive")
    return np.diff(prices) / prices[:-1]


def garch_sigma2_path(
    params: GarchParams, returns: np.ndarray, sigma2_init: float | None = None
) -> np.ndarray:
    """Conditional-variance path for the given returns.

    The first variance defaults to the sample variance of the window; later
    entries follow the recursion. Implemented as a linear filter so the whole
    path is one vectorized pass.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.size == 0:
        raise NoDataError("empty return series")
    s0 = float(np.var(returns)) if sigma2_init is None else float(sigma2_init)
    path = _sigma2_path(params.omega, params.arch_coef, params.garch_coef, returns, s0)
    if path is None:
        raise DomainError(
            f"conditional variance is not finite or fell below {SIGMA2_FLOOR:g}; "
            "data or parameters degenerate"
        )
    return path


def _sigma2_path(omega, a, b, returns, s0):
    """Variance path without object construction; None when it degenerates."""
    rest, _ = lfilter([1.0], [1.0, -b], omega + a * returns[:-1] ** 2, zi=[b * s0])
    path = np.concatenate([[s0], rest])
    if not np.all(np.isfinite(path)) or np.min(path) < SIGMA2_FLOOR:
        return None
    return path


def _gaussian_nll(path: np.ndarray, returns: np.ndarray) -> float:
    """0.5 * sum(log(2 pi s_t) + r_t^2 / s_t) over a variance path."""
    return float(0.5 * np.sum(np.log(2.0 * math.pi * path) + returns**2 / path))


def garch_neg_loglik(
    params: GarchParams, returns: np.ndarray, sigma2_init: float | None = None
) -> float:
    """Gaussian negative log-likelihood 0.5 * sum(log(2 pi s_t) + r_t^2 / s_t)."""
    returns = np.asarray(returns, dtype=float)
    return _gaussian_nll(garch_sigma2_path(params, returns, sigma2_init), returns)


def forecast_next_sigma2(params: GarchParams, v_prev: float, sigma2_prev: float) -> float:
    """One-step-ahead variance omega + a * v_prev + b * sigma2_prev."""
    return params.omega + params.arch_coef * v_prev + params.garch_coef * sigma2_prev


def _unpack(x: np.ndarray) -> tuple[float, float, float]:
    """Map unconstrained coordinates onto (omega > 0, a, b on the open simplex)."""
    w, u, v = x
    shift = max(0.0, u, v)  # stable softmax of (0, u, v)
    z0, zu, zv = math.exp(-shift), math.exp(u - shift), math.exp(v - shift)
    denom = z0 + zu + zv
    omega = math.exp(w) if w < 700.0 else math.inf
    return omega, zu / denom, zv / denom


def _pack(omega: float, a: float, b: float) -> np.ndarray:
    rest = 1.0 - a - b
    return np.array([math.log(omega), math.log(a / rest), math.log(b / rest)])


def _nll_and_grad(x: np.ndarray, returns: np.ndarray, s0: float) -> tuple[float, np.ndarray]:
    """Negative log-likelihood at unconstrained ``x`` and its exact gradient in ``x``.

    d sigma2_t / d(omega, a, b) is the variance filter run over the driving rows
    (1, r_{t-1}^2, sigma2_{t-1}) (Fiorentini, Calzolari & Panattoni 1996),
    chained through ``_unpack``. A degenerate path scores 1e12, gradient 0.
    """
    omega, a, b = _unpack(x)
    path = _sigma2_path(omega, a, b, returns, s0) if 0.0 < omega < math.inf else None
    if path is None:
        return 1e12, np.zeros(3)
    drive = np.stack([np.ones(returns.size - 1), returns[:-1] ** 2, path[:-1]])
    dpath = lfilter([1.0], [1.0, -b], drive, axis=1)
    d_omega, d_a, d_b = dpath @ (0.5 * (path[1:] - returns[1:] ** 2) / path[1:] ** 2)
    mean = a * d_a + b * d_b  # (a, b) is a softmax of (u, v)
    return _gaussian_nll(path, returns), np.array([omega * d_omega, a * (d_a - mean),
                                                   b * (d_b - mean)])


def fit_garch(returns, max_iter: int = MAX_ITER) -> GarchFit:
    """Maximum-likelihood GARCH(1,1) fit: BFGS on ``_nll_and_grad`` from three starts.

    The best optimum must have a scaled gradient norm (search coordinates) of
    at most ``GRADIENT_TOL`` and gain at most ``OMEGA_GAIN_TOL`` from raising
    omega (``-dnll/domega * var(r) / max(1, |nll|)``). That test is one-sided:
    it rejects a search stalled at omega -> 0, where the log-omega gradient
    vanishes, and keeps an optimum that truly lies there. Else it raises
    ``ConvergenceError`` carrying the fit. Deterministic.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.size < MIN_FIT_LENGTH:
        raise NoDataError(f"need at least {MIN_FIT_LENGTH} returns, got {returns.size}")
    sample_var = float(np.var(returns))
    if sample_var < SIGMA2_FLOOR:
        raise DegenerateDataError("returns have (numerically) zero variance")

    runs = [minimize(_nll_and_grad, _pack(sample_var * (1.0 - a0 - b0), a0, b0),
                     args=(returns, sample_var), method="BFGS", jac=True,
                     options={"maxiter": max_iter})
            for a0, b0 in [(0.05, 0.90), (0.10, 0.80), (0.20, 0.40)]]
    best = min(runs, key=lambda res: res.fun)
    omega, a, b = _unpack(best.x)
    if a + b >= 1.0 - 1e-10:  # float rounding at the simplex boundary
        shrink = (1.0 - 1e-10) / (a + b)
        a, b = a * shrink, b * shrink
    params = GarchParams(omega, a, b)
    fit = GarchFit(params, garch_sigma2_path(params, returns, sample_var), float(best.fun),
                   sum(res.nit for res in runs))
    scale = max(1.0, abs(fit.neg_loglik))
    gradient = float(np.max(np.abs(best.jac))) / scale
    omega_gain = -best.jac[0] / omega * sample_var / scale
    if gradient > GRADIENT_TOL or omega_gain > OMEGA_GAIN_TOL:
        raise ConvergenceError(f"scaled gradient norm {gradient:.3g} (limit {GRADIENT_TOL:g}), "
                               f"gain {omega_gain:.3g} from raising omega = {omega:.3g} "
                               f"(limit {OMEGA_GAIN_TOL:g})", best=fit)
    return fit


def simulate_garch_returns(
    n_returns: int,
    params: GarchParams | list[tuple[int, GarchParams]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Returns drawn from a (possibly regime-switching) Gaussian GARCH(1,1).

    ``params`` is either one parameter set or a list of ``(start_index, params)``
    segments with the first start at 0; the conditional variance carries over
    across regime changes.
    """
    if n_returns < 1:
        raise ConfigurationError("need at least one return")
    if isinstance(params, GarchParams):
        segments = [(0, params)]
    else:
        segments = sorted(params, key=lambda kv: kv[0])
        if not segments or segments[0][0] != 0:
            raise ConfigurationError("the first regime must start at index 0")
    regime_of = np.zeros(n_returns, dtype=int)
    for idx, (start, _) in enumerate(segments):
        regime_of[start:] = idx
    eps = rng.standard_normal(n_returns)
    sigma2 = segments[regime_of[0]][1].unconditional_variance
    rets = np.empty(n_returns)
    for t in range(n_returns):
        p = segments[regime_of[t]][1]
        if t > 0:
            sigma2 = forecast_next_sigma2(p, rets[t - 1] ** 2, sigma2)
        rets[t] = math.sqrt(sigma2) * eps[t]
    return rets


def simulate_garch_prices(
    n_days: int,
    params: GarchParams | list[tuple[int, GarchParams]],
    rng: np.random.Generator,
    initial_price: float = 100.0,
) -> np.ndarray:
    """Daily prices compounded from simulated GARCH returns."""
    if n_days < 2:
        raise ConfigurationError("need at least two days of prices")
    rets = simulate_garch_returns(n_days - 1, params, rng)
    prices = initial_price * np.cumprod(np.concatenate([[1.0], 1.0 + rets]))
    if np.any(prices <= 0.0):
        raise DomainError("simulated returns drove the price nonpositive; shrink omega")
    return prices


#: Parameters of the bundled demo series: a placid market and a crisis regime
#: whose variance level is 12x higher with much faster shock propagation.
QUIET_REGIME = GarchParams(2.0e-6, 0.06, 0.92)
CRISIS_REGIME = GarchParams(3.6e-4, 0.30, 0.40)


def default_regime_prices(
    n_days: int, rng: np.random.Generator, initial_price: float = 100.0
) -> np.ndarray:
    """Self-contained regime-switching demo series.

    Two crisis stretches (entered at 54% and 86% of the horizon, the first
    ending at 72%) interrupt an otherwise placid market. A model fit mostly
    on placid data chases the crisis variance level slowly, which is what
    makes a non-adaptive calibration fail on this series.
    """
    if n_days < 100:
        raise ConfigurationError("the demo series needs at least 100 days")
    marks = [int(n_days * f) for f in (0.54, 0.72, 0.86)]
    regimes = [
        (0, QUIET_REGIME),
        (marks[0], CRISIS_REGIME),
        (marks[1], QUIET_REGIME),
        (marks[2], CRISIS_REGIME),
    ]
    return simulate_garch_prices(n_days, regimes, rng, initial_price=initial_price)


def forecast_stream(rets, window: int, refit_every: int) -> tuple[np.ndarray, np.ndarray]:
    """GARCH variance forecasts and conformity scores for every prediction step.

    Step ``k`` predicts return ``window + k``. The trailing ``window``
    returns are (re)fit every ``refit_every`` steps and the variance forecast
    ``sigma2[k]`` is rolled forward every step. ``history`` holds the first
    fit's in-sample scores followed by one score per step, so the
    calibration window of step ``k`` is ``history[k : k + window]``. Nothing
    here depends on the adaptive level, so one stream can be replayed under
    several calibration policies.

    A failed fit, or a forecast path that is not finite or falls below
    ``SIGMA2_FLOOR``, raises ``ExperimentAborted`` whose ``partial_report``
    is the ``(sigma2, history)`` prefix before that refit.
    """
    rets = np.asarray(rets, dtype=float)
    n = rets.size
    if window < MIN_FIT_LENGTH:
        raise ConfigurationError(f"window must be at least {MIN_FIT_LENGTH}")
    if refit_every < 1:
        raise ConfigurationError("refit_every must be >= 1")
    if n <= window:
        raise NoDataError(f"need more than window = {window} returns, got {n}")
    vol = rets**2
    # The first fit's in-sample path, then one forecast per step: each refit
    # filters its segment forward from the last in-sample variance.
    fitted = np.empty(n)
    for t in range(window, n, refit_every):
        stop = min(t + refit_every, n)
        try:
            fit = fit_garch(rets[t - window : t])
            path = garch_sigma2_path(fit.params, rets[t - 1 : stop], fit.sigma2_path[-1])
        except (ConvergenceError, DegenerateDataError, DomainError) as exc:
            done = t if t > window else 0  # a failed first refit leaves nothing scored
            prefix = (fitted[window:t], NormalizedScore(fitted[:done]).score(vol[:done]))
            raise ExperimentAborted(f"GARCH refit failed at step {t - window}: {exc}",
                                    prefix) from exc
        logger.info("refit at step %d: omega=%.6g a=%.6g b=%.6g nll=%.6f bfgs_iterations=%d",
                    t - window, *astuple(fit.params), fit.neg_loglik, fit.iterations)
        if t == window:
            fitted[:window] = fit.sigma2_path
        fitted[t:stop] = path[1:]
    return fitted[window:], NormalizedScore(fitted).score(vol)


def replay_forecast_stream(
    sigma2: np.ndarray,
    history: np.ndarray,
    aci_config: core.AciConfig,
    labels: list[str] | None = None,
) -> TrajectoryReport:
    """Run the adaptive-level recursion over a precomputed volatility stream.

    ``labels`` has one entry per return (default: its 1-based index); each
    step carries the label of the return it predicts.
    """
    window = history.size - sigma2.size
    if labels is None:
        labels = [str(t) for t in range(1, history.size + 1)]
    return replay(
        aci_config,
        history[window:],
        lambda k, p: empirical_quantile(history[k : k + window], p),
        NormalizedScore(sigma2).interval,
        labels[window : history.size],
    )


def run_volatility_experiment(
    prices,
    aci_config: core.AciConfig,
    window: int = 1250,
    refit_every: int = 1,
    labels: list[str] | None = None,
) -> TrajectoryReport:
    """Walk the price series, forecasting realized volatility one day ahead.

    For each day past the warm-up window the trailing ``window`` returns are
    (re)fit every ``refit_every`` steps, the variance forecast is rolled
    forward every step, and the threshold is the empirical quantile of the
    trailing ``window`` scores at the current adaptive level. Scores enter
    the calibration window as computed at their own time, so early windows
    mix in-sample scores from the first fit with later out-of-sample ones.
    """
    rets = returns_from_prices(prices)
    if labels is not None and len(labels) != rets.size:
        raise ConfigurationError("labels must have one entry per return")
    try:
        stream = forecast_stream(rets, window, refit_every)
    except ExperimentAborted as exc:
        partial = replay_forecast_stream(*exc.partial_report, aci_config, labels)
        exc.partial_report = replace(partial, valid=False, failure=str(exc.__cause__))
        raise
    return replay_forecast_stream(*stream, aci_config, labels)
