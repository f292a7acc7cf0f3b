"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Monte-Carlo criteria use frozen seeds; every tolerance is
stated inline next to the assertion it guards.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from adaptive_conformal import bounds
from adaptive_conformal.cli import main as cli_main
from adaptive_conformal.conformal import (
    AbsoluteScore,
    CqrScore,
    NormalizedScore,
    empirical_quantile,
)
from adaptive_conformal.core import AciConfig
from adaptive_conformal.election import (
    cqr_prediction_stream,
    generate_synthetic_counties,
    replay_prediction_stream,
    sample_ordering,
)
from adaptive_conformal.hmm import (
    HmmSpec,
    NormalQuantile,
    exceedance_levels,
    per_state_alpha_star,
    run_level_batch,
    simulate_hmm_batch,
    spectral_gap,
    stationary_distribution,
    symmetric_chain,
)
from adaptive_conformal.metrics import bernoulli_band, local_coverage
from adaptive_conformal.volatility import (
    GarchParams,
    default_regime_prices,
    fit_garch,
    forecast_stream,
    replay_forecast_stream,
    returns_from_prices,
    simulate_garch_returns,
)


class Stopwatch:
    def __init__(self, label, limit_seconds):
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.1f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} exceeded its runtime limit"
        return False


def random_fuzz_configs(n_batches, rng):
    for _ in range(n_batches):
        yield AciConfig(
            target_miscoverage=float(rng.uniform(0.02, 0.5)),
            step_size=float(rng.uniform(0.001, 0.2)),
            initial_level=float(rng.uniform(0.0, 1.0)),
        )


def test_c01_level_band_fuzz():
    """Adaptive level stays inside [-gamma, 1+gamma] on every fuzzed path."""
    with Stopwatch("1 level-band", 10):
        rng = np.random.default_rng(42)
        rows_per_batch, steps = 20, 100_000
        for cfg in random_fuzz_configs(5, rng):
            levels = rng.random((rows_per_batch, steps))
            alphas, _ = run_level_batch(cfg, levels, bool(rng.integers(2)))
            g = cfg.step_size
            assert float(alphas.min()) >= -g - 1e-12
            assert float(alphas.max()) <= 1.0 + g + 1e-12


def test_c02_coverage_bound_every_prefix():
    """|mean err - alpha| <= (max(a1, 1-a1) + g) / (T g) at every prefix."""
    with Stopwatch("2 coverage-bound", 30):
        rng = np.random.default_rng(43)
        rows_per_batch, steps = 20, 100_000
        horizon = np.arange(1, steps + 1)
        for cfg in random_fuzz_configs(5, rng):
            levels = rng.random((rows_per_batch, steps))
            _, errs = run_level_batch(cfg, levels, bool(rng.integers(2)))
            worst = max(cfg.initial_level, 1.0 - cfg.initial_level) + cfg.step_size
            limit = worst / (horizon * cfg.step_size)
            gap = np.abs(np.cumsum(errs, axis=1) / horizon - cfg.target_miscoverage)
            assert np.all(gap <= limit + 1e-12)


def test_c03_ideal_case_recursion():
    """Mean error at step t matches alpha + (1-gamma)^(t-1)(alpha1 - alpha)."""
    with Stopwatch("3 ideal-recursion", 120):
        alpha, gamma, alpha1, reps = 0.1, 0.005, 0.5, 10_000
        cfg = AciConfig(alpha, gamma, initial_level=alpha1)
        rng = np.random.default_rng(1)
        levels = rng.random((reps, 1000))
        _, errs = run_level_batch(cfg, levels, True)
        for t in (2, 10, 100, 1000):
            theory = bounds.ideal_expectation(t, alpha1, gamma, alpha)
            mc = float(errs[:, t - 1].mean())
            se = math.sqrt(theory * (1.0 - theory) / reps)
            assert abs(mc - theory) <= 3.0 * se, f"t={t}: {mc} vs {theory} (3se={3*se:.4f})"


def test_c04_level_lattice():
    """With (1-alpha)/alpha integral, every level sits on {alpha + k g alpha}."""
    with Stopwatch("4 level-lattice", 5):
        cfg = AciConfig(0.1, 0.005)  # (1 - 0.1)/0.1 = 9
        rng = np.random.default_rng(77)
        levels = rng.random((1, 100_000))
        alphas, _ = run_level_batch(cfg, levels, False)
        assert bounds.lattice_check(alphas[0], 0.1, 0.005, tol=1e-9)


def test_c05_quantile_matches_linear_scan():
    """Empirical quantile equals the literal smallest-s scan definition."""
    with Stopwatch("5 quantile-oracle", 5):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            n = int(rng.integers(1, 51))
            scores = rng.normal(size=n)
            p = float(rng.uniform(0.0, 1.0))
            if p == 0.0:
                p = 1.0
            expected = math.inf
            for s in sorted(scores):
                if np.count_nonzero(scores <= s) / n >= p:
                    expected = s
                    break
            assert empirical_quantile(scores, p) == expected


def test_c06_large_deviation_bound():
    """Empirical exceedance never beats the two-term tail bound when it binds."""
    with Stopwatch("6 large-deviation", 300):
        alpha, horizon, reps = 0.1, 5000, 500
        cfg = AciConfig(alpha, 0.005)
        spec = HmmSpec(symmetric_chain(2, 0.95), np.zeros(2), np.array([1.0, 2.0]))
        qhat = NormalQuantile(0.0, 1.0)
        gap = spectral_gap(spec.transition)
        assert gap == pytest.approx(0.1, abs=1e-12)  # eigenvalues {1, 2p-1}
        burn = math.ceil(20.0 / cfg.step_size)
        rng = np.random.default_rng(2024)
        states, scores = simulate_hmm_batch(spec, burn + horizon, reps, rng)
        levels, strict = exceedance_levels(qhat, scores)
        _, errs = run_level_batch(cfg, levels, strict)
        tail_errs, tail_states = errs[:, burn:], states[:, burn:]
        pi = stationary_distribution(spec.transition)
        means = np.array([tail_errs[tail_states == a].mean() for a in range(2)])
        dev = means - alpha
        b_hat = float(np.max(np.abs(dev)))
        sigma_b2_hat = float(np.sum(pi * dev**2))
        rep_means = tail_errs.mean(axis=1)
        checked = 0
        for eps in (0.02, 0.05):
            rhs = bounds.large_deviation_rhs(horizon, eps, 1.0 - gap, sigma_b2_hat, b_hat)
            if rhs < 1.0:
                emp = float(np.mean(np.abs(rep_means - alpha) >= eps))
                assert emp <= rhs, f"eps={eps}: empirical {emp} > bound {rhs}"
                checked += 1
        assert checked >= 1  # the bound must bind for at least one epsilon


def test_c07_regret_bound_and_step_size_rule():
    """Mean-square miscoverage gap obeys the regret bound; best step size is
    within a factor of 4 of sqrt(2 E|shift|)."""
    with Stopwatch("7 regret-bound", 300):
        alpha, shift = 0.1, 0.001
        spec = HmmSpec(
            symmetric_chain(2, 0.95), np.array([-shift, shift]), np.array([1.0, 1.0])
        )
        qhat = NormalQuantile(0.0, 1.0)
        stars = per_state_alpha_star(spec, qhat, alpha)
        pi = stationary_distribution(spec.transition)
        diff = np.abs(stars[:, None] - stars[None, :])
        delta_mean = float(np.sum(pi[:, None] * spec.transition * diff))
        g_star = bounds.gamma_star(delta_mean)
        lhs_by_gamma = {}
        for gamma in (0.002, 0.005, 0.02, 0.05):
            cfg = AciConfig(alpha, gamma)
            burn = math.ceil(20.0 / gamma)
            rng = np.random.default_rng(100)
            states, scores = simulate_hmm_batch(spec, burn + 3000, 300, rng)
            levels, strict = exceedance_levels(qhat, scores)
            alphas, _ = run_level_batch(cfg, levels, strict)
            a = alphas[:, burn:]
            mu = spec.score_means[states[:, burn:]]
            quantile_level = 1.0 - a
            threshold = norm.ppf(np.clip(quantile_level, 0.0, 1.0))
            miscov = np.where(
                quantile_level > 1.0, 0.0,
                np.where(quantile_level < 0.0, 1.0, norm.sf(threshold - mu)),
            )
            lhs = float(np.mean((miscov - alpha) ** 2))
            rhs = bounds.regret_rhs(1.0, gamma, delta_mean)
            lhs_by_gamma[gamma] = lhs
            assert lhs <= rhs, f"gamma={gamma}: {lhs} > {rhs}"
        best = min(lhs_by_gamma, key=lhs_by_gamma.get)
        assert g_star / 4.0 <= best <= 4.0 * g_star, (best, g_star)


def test_c08_garch_parameter_recovery():
    """Simulation-fit round trip recovers the generating coefficients."""
    with Stopwatch("8 garch-recovery", 120):
        true = GarchParams(0.05, 0.10, 0.85)
        hits = 0
        for seed in range(20):
            rets = simulate_garch_returns(5000, true, np.random.default_rng(seed))
            fit = fit_garch(rets)
            hits += (
                abs(fit.params.omega - true.omega) <= 0.05
                and abs(fit.params.arch_coef - true.arch_coef) <= 0.05
                and abs(fit.params.garch_coef - true.garch_coef) <= 0.05
            )
        assert hits >= 18, f"only {hits}/20 fits recovered the parameters"


def test_c09_volatility_pipeline_beats_frozen_baseline():
    """On the bundled regime-switching series the adaptive run keeps its local
    coverage inside the 99% i.i.d.-Bernoulli band while the frozen baseline
    exits it; adaptive average coverage lands in 0.9 +- 0.015."""
    with Stopwatch("9 volatility-pipeline", 300):
        prices = default_regime_prices(5000, np.random.default_rng(0))
        window, refit_every = 2000, 5
        # Both runs replay one set of GARCH fits: the stream ignores the level.
        stream = forecast_stream(returns_from_prices(prices), window, refit_every)
        adaptive = replay_forecast_stream(*stream, AciConfig(0.1, 0.005))
        frozen = replay_forecast_stream(*stream, AciConfig(0.1, 0.0))
        n = len(adaptive)
        lower, upper = bernoulli_band(n, 0.1, 500, 3000, 0.99, np.random.default_rng(0))
        cov_a = 1.0 - float(adaptive.errs.mean())
        assert abs(cov_a - 0.9) <= 0.015, f"adaptive average coverage {cov_a}"
        local_a = local_coverage(adaptive.errs, 500)
        assert np.all((local_a >= lower) & (local_a <= upper)), "adaptive run left the band"
        local_f = local_coverage(frozen.errs, 500)
        assert not np.all((local_f >= lower) & (local_f <= upper)), "baseline never left the band"


def test_c10_election_pipeline_transition():
    """Exchangeable orderings calibrate both methods; population-sorted
    orderings break the frozen baseline's worst local coverage but not the
    adaptive one's."""
    with Stopwatch("10 election-pipeline", 600):
        adaptive_cfg = AciConfig(0.1, 0.005)
        frozen_cfg = AciConfig(0.1, 0.0)
        passes = 0
        for seed in range(20):
            counties = generate_synthetic_counties(3000, 11, seed=seed)
            pops = np.array([c.population for c in counties])
            ok = True
            for sigma in (0.0, math.inf):
                order = sample_ordering(pops, sigma, np.random.default_rng(1000 + seed))
                stream = cqr_prediction_stream(
                    counties, order, 0.1, warmup=500, refit_every=20,
                    rng=np.random.default_rng(2000 + seed),
                )
                rep_a = replay_prediction_stream(stream, adaptive_cfg)
                rep_f = replay_prediction_stream(stream, frozen_cfg)
                cov_a = 1.0 - float(rep_a.errs.mean())
                if sigma == 0.0:
                    cov_f = 1.0 - float(rep_f.errs.mean())
                    ok &= abs(cov_a - 0.9) <= 0.02 and abs(cov_f - 0.9) <= 0.02
                else:
                    local_a = local_coverage(rep_a.errs, 300)
                    local_f = local_coverage(rep_f.errs, 300)
                    ok &= float(local_f.min()) < float(local_a.min())
                    ok &= abs(cov_a - 0.9) <= 0.02
            passes += ok
        assert passes >= 18, f"only {passes}/20 seeds passed"


def test_c11_score_interval_duality():
    """Membership in the inverted interval is exactly score <= threshold."""
    with Stopwatch("11 score-duality", 5):
        rng = np.random.default_rng(2024)
        for _ in range(100_000):
            kind = rng.integers(3)
            if kind == 0:
                ctx = AbsoluteScore(float(rng.normal(scale=5)))
            elif kind == 1:
                ctx = NormalizedScore(float(rng.uniform(0.1, 5.0)))
            else:
                lo = float(rng.normal(scale=3))
                ctx = CqrScore(lo, lo + float(rng.uniform(0.0, 4.0)))
            threshold = float(rng.normal(scale=2))
            y = float(rng.normal(scale=6))
            if isinstance(ctx, NormalizedScore):
                y = abs(y)
            assert ctx.interval(threshold).contains(y) == (ctx.score(y) <= threshold)


def test_c12_cli_determinism(tmp_path):
    """Every command with a fixed seed produces byte-identical output files."""
    with Stopwatch("12 cli-determinism", 120):
        commands = [
            ["volatility", "--synthetic", "400", "--window", "100", "--refit-every", "20",
             "--seed", "5"],
            ["election", "--synthetic", "620", "--covariates", "3", "--warmup", "500",
             "--refit-every", "30", "--sigma", "inf", "--seed", "5"],
            ["simulate", "--states", "2", "--p", "0.95", "--scales", "1,2",
             "--horizon", "500", "--reps", "150", "--seed", "5"],
        ]
        for cmd in commands:
            blobs = []
            for run_id in ("first", "second"):
                out = tmp_path / f"{cmd[0]}-{run_id}"
                assert cli_main(cmd + ["--out", str(out)]) == 0
                blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert blobs[0] == blobs[1], f"{cmd[0]} outputs differ between runs"
        # report reads one of the trajectories it just wrote
        src = tmp_path / "volatility-first" / "trajectory.csv"
        outs = []
        for run_id in ("first", "second"):
            dest = tmp_path / f"report-{run_id}.json"
            assert cli_main(["report", "--in", str(src), "--out", str(dest)]) == 0
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]
