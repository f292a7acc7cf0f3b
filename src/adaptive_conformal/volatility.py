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
from bisect import bisect_left, insort
from dataclasses import astuple, dataclass

import numpy as np
from scipy.optimize import minimize  # noqa: F401  (perfbench/tracer.py rebinds it)
from scipy.signal import lfilter

from . import core
from .conformal import NormalizedScore, calibration_scores
from .conformal import empirical_quantile  # noqa: F401  (perfbench/tracer.py)
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
MAX_ITER = 500
WARM_MIN_LENGTH = 1000  # fewest returns a warm start is used on
AB_MAX = 1.0 - 1e-10  # largest a + b of a fit
COLD_STARTS = ((0.05, 0.90), (0.10, 0.80), (0.20, 0.40))  # (a, b); omega from var(r)
#: Inward normals of the faces omega >= SIGMA2_FLOOR, a >= 0, b >= 0, a + b <= AB_MAX.
FACES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, -1.0]])


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
    iterations: int  # projected Newton steps over all starting points
    warm: bool = False  # the search from the given start passed; no cold starts ran


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


def _derivatives(y: np.ndarray, returns: np.ndarray, s0: float):
    """(nll, gradient, Hessian) at ``y`` = (omega / s0, a, b).

    d sigma2_t / dy filters the rows (s0, r_{t-1}^2, sigma2_{t-1}); the only nonzero
    d2 sigma2_t / db dy filter those a step late (Fiorentini et al. 1996). A degenerate
    path, or derivatives that overflow (``lstsq`` hangs on inf), score 1e12 with zeros.
    """
    b = y[2]
    with np.errstate(over="ignore", invalid="ignore"):  # scored by the isfinite tests
        path = _sigma2_path(s0 * y[0], y[1], b, returns, s0)
        if path is not None:
            drive = np.stack([np.full(returns.size - 1, s0), returns[:-1] ** 2, path[:-1]])
            dpath = lfilter([1.0], [1.0, -b], drive, axis=1)
            rel, z2 = dpath / path[1:], returns[1:] ** 2 / path[1:]
            grad = rel @ (0.5 * (1.0 - z2))
            late = lfilter([0.0, 1.0], [1.0, -b], dpath, axis=1)  # b row: half d2 / db2
            tail = np.outer([0.0, 0.0, 1.0], late @ (0.5 * (1.0 - z2) / path[1:]))
            hess = (rel * (z2 - 0.5)) @ rel.T + tail + tail.T
            if np.isfinite(grad).all() and np.isfinite(hess).all():
                return _gaussian_nll(path, returns), grad, hess
    return 1e12, np.zeros(3), np.zeros((3, 3))


def _project(y: np.ndarray, s0: float) -> np.ndarray:
    """The nearest feasible point: omega clipped, then (a, b) onto the triangle."""
    a, b = max(y[1], 0.0), max(y[2], 0.0)
    if a + b > AB_MAX:  # then the nearest point lies on the edge a + b = AB_MAX
        a = min(max((y[1] - y[2] + AB_MAX) / 2.0, 0.0), AB_MAX)
        b = AB_MAX - a
    return np.array([max(y[0], SIGMA2_FLOOR / s0), a, b])


def _kkt(y: np.ndarray, nll: float, grad: np.ndarray, s0: float):
    """(orthonormal basis of the free moves, KKT gap) at ``y``.

    The active constraints are those ``y`` sits on whose least-squares multipliers in
    grad = sum(lambda_i * inward normal_i) are all positive; the most negative one is
    released first. The gap is the largest coordinate of the gradient's part along
    the free moves over max(1, |nll|).
    """
    slack = FACES @ y - [SIGMA2_FLOOR / s0, 0.0, 0.0, -AB_MAX]
    active = list(np.flatnonzero(slack <= 1e-12))
    while active:
        lam = np.linalg.lstsq(FACES[active].T, grad, rcond=None)[0]
        if lam.min() > 0.0:
            break
        del active[int(np.argmin(lam))]
    free = np.linalg.qr(FACES[active].T, mode="complete")[0][:, len(active):]
    return free, float(np.max(np.abs(free @ (free.T @ grad)))) / max(1.0, abs(nll))


def _newton_step(hess: np.ndarray, grad: np.ndarray):
    """The Newton step on the Hessian with its eigenvalues made positive."""
    lam, vec = np.linalg.eigh(hess)
    return np.linalg.lstsq((vec * np.abs(lam)) @ vec.T, -grad, rcond=None)[0]


def _search(y: np.ndarray, returns: np.ndarray, s0: float):
    """Projected Newton search from ``y`` (Bertsekas 1982): (nll, gradient, y, iterations).

    Each iteration takes the Newton step on the free moves, projects it onto the
    feasible set and halves it until the NLL falls. It stops at a KKT gap of at most
    ``GRADIENT_TOL``, where no halving helps, or after ``MAX_ITER`` steps.
    """
    y = _project(y, s0)
    nll, grad, hess = _derivatives(y, returns, s0)
    for it in range(MAX_ITER):
        free, gap = _kkt(y, nll, grad, s0)
        if gap <= GRADIENT_TOL:
            return nll, grad, y, it
        step = free @ _newton_step(free.T @ hess @ free, free.T @ grad)
        for _ in range(42):
            trial = _project(y + step, s0)
            out = _derivatives(trial, returns, s0)
            if out[0] < nll:
                break
            step = step / 2.0
        else:
            return nll, grad, y, it
        y, (nll, grad, hess) = trial, out
    return nll, grad, y, MAX_ITER


def _result(run, returns: np.ndarray, s0: float, iterations: int, warm: bool = False):
    """The fit a search ended at, and its KKT gap."""
    nll, grad, y, _ = run
    w, a, b = y.tolist()
    params = GarchParams(s0 * w, a, b)
    fit = GarchFit(params, garch_sigma2_path(params, returns, s0), float(nll), iterations, warm)
    return fit, _kkt(y, nll, grad, s0)[1]


def fit_garch(returns, start: GarchParams | None = None) -> GarchFit:
    """Maximum-likelihood GARCH(1,1) fit: ``_search`` from ``start`` or from three starts.

    The search runs on the feasible set itself, in y = (omega / var(r), a, b) with
    omega >= ``SIGMA2_FLOOR``, a, b >= 0 and a + b <= ``AB_MAX``, so a fit can lie
    exactly on a bound. One KKT test (``_kkt``) accepts a fit: the gradient, less
    its part that presses outward on the bounds the fit lies on, is at most
    ``GRADIENT_TOL`` * max(1, |nll|) in every coordinate of y.

    Given ``start`` (say, the fit of an overlapping window) and at least
    ``WARM_MIN_LENGTH`` returns, one search runs from it; if its end passes the
    test, that is the fit (``warm`` is True). Otherwise the three cold starts run.
    Shorter windows' likelihoods have several local optima, and a warm search can
    stay in one that the cold starts leave. Each search runs at most ``MAX_ITER``
    iterations, read at call time. A best cold optimum that fails the test raises
    ``ConvergenceError`` carrying that fit. Deterministic.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.size < MIN_FIT_LENGTH:
        raise NoDataError(f"need at least {MIN_FIT_LENGTH} returns, got {returns.size}")
    sample_var = float(np.var(returns))
    if sample_var < SIGMA2_FLOOR:
        raise DegenerateDataError("returns have (numerically) zero variance")

    iterations = 0
    if start is not None and returns.size >= WARM_MIN_LENGTH:
        y = np.array([start.omega / sample_var, start.arch_coef, start.garch_coef])
        run = _search(y, returns, sample_var)
        fit, gap = _result(run, returns, sample_var, run[3], warm=True)
        if gap <= GRADIENT_TOL:
            return fit
        iterations = run[3]
    runs = [_search(np.array([1.0 - a0 - b0, a0, b0]), returns, sample_var)
            for a0, b0 in COLD_STARTS]
    best = min(runs, key=lambda run: run[0])
    fit, gap = _result(best, returns, sample_var, iterations + sum(run[3] for run in runs))
    if gap > GRADIENT_TOL:
        raise ConvergenceError(
            f"KKT gap {gap:.3g} (limit {GRADIENT_TOL:g}) at omega = {fit.params.omega:.3g}, "
            f"a = {fit.params.arch_coef:.3g}, b = {fit.params.garch_coef:.3g}", best=fit)
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
) -> np.ndarray:
    """Daily prices compounded from simulated GARCH returns, starting at 100."""
    if n_days < 2:
        raise ConfigurationError("need at least two days of prices")
    rets = simulate_garch_returns(n_days - 1, params, rng)
    prices = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + rets]))
    if np.any(prices <= 0.0):
        raise DomainError("simulated returns drove the price nonpositive; shrink omega")
    return prices


#: Parameters of the bundled demo series: a placid market and a crisis regime
#: whose variance level is 12x higher with much faster shock propagation.
QUIET_REGIME = GarchParams(2.0e-6, 0.06, 0.92)
CRISIS_REGIME = GarchParams(3.6e-4, 0.30, 0.40)


def default_regime_prices(n_days: int, rng: np.random.Generator) -> np.ndarray:
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
    return simulate_garch_prices(n_days, regimes, rng)


def forecast_stream(rets, window: int, refit_every: int) -> tuple[np.ndarray, np.ndarray]:
    """GARCH variance forecasts and conformity scores for every prediction step.

    Step ``k`` predicts return ``window + k``. The trailing ``window``
    returns are (re)fit every ``refit_every`` steps and the variance forecast
    ``sigma2[k]`` is rolled forward every step; each refit after the first
    starts from the fit before it. ``history`` holds the first
    fit's in-sample scores followed by one score per step, so the
    calibration window of step ``k`` is ``history[k : k + window]``. Nothing
    here depends on the adaptive level, so one stream can be replayed under
    several calibration policies.

    A failed fit, or a forecast path that is not finite or falls below
    ``SIGMA2_FLOOR``, raises ``ExperimentAborted`` naming the refit's step.
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
    start = None
    for t in range(window, n, refit_every):
        stop = min(t + refit_every, n)
        try:
            fit = fit_garch(rets[t - window : t], start)
            path = garch_sigma2_path(fit.params, rets[t - 1 : stop], fit.sigma2_path[-1])
        except (ConvergenceError, DegenerateDataError, DomainError) as exc:
            raise ExperimentAborted(f"GARCH refit failed at step {t - window}: {exc}") from exc
        logger.info("refit at step %d: start=%s omega=%.6g a=%.6g b=%.6g nll=%.6f "
                    "iterations=%d", t - window, "warm" if fit.warm else "cold",
                    *astuple(fit.params), fit.neg_loglik, fit.iterations)
        if t == window:
            fitted[:window] = fit.sigma2_path
        fitted[t:stop] = path[1:]
        start = fit.params
    return fitted[window:], NormalizedScore(fitted).score(vol)


def _sorted_windows(history: np.ndarray, window: int):
    """Step ``k``'s window ``history[k : k + window]``: one sorted list, slid after each use."""
    values = history.tolist()
    win = sorted(values[:window])
    for old, new in zip(values, values[window:]):
        yield win
        del win[bisect_left(win, old)]
        insort(win, new)


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
    calibration_scores(history)
    if labels is None:
        labels = [str(t) for t in range(1, history.size + 1)]
    return replay(
        aci_config,
        history[window:],
        _sorted_windows(history, window),
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
    return replay_forecast_stream(*forecast_stream(rets, window, refit_every), aci_config, labels)
