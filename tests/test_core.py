import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptive_conformal.core import (
    AciConfig,
    empirical_miscoverage,
    init,
    prop_bound,
    update,
)
from adaptive_conformal.errors import ConfigurationError, DomainError, NoDataError


def run_errs(config, errs):
    state = init(config)
    levels = [state.current_level]
    for e in errs:
        state = update(state, e)
        levels.append(state.current_level)
    return state, levels


class TestConfig:
    def test_init_matches_target_by_default(self):
        cfg = AciConfig(target_miscoverage=0.1, step_size=0.005)
        state = init(cfg)
        assert state.current_level == 0.1
        assert state.step_index == 1
        assert state.cumulative_err_count == 0
        assert state.weighted_err_numerator == 0.0
        assert state.weighted_err_denominator == 0.0

    def test_zero_step_size_is_allowed(self):
        cfg = AciConfig(target_miscoverage=0.05, step_size=0.0, initial_level=0.05)
        assert init(cfg).current_level == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_miscoverage=0.0),
            dict(target_miscoverage=1.0),
            dict(target_miscoverage=0.1, step_size=-0.001),
            dict(target_miscoverage=0.1, initial_level=1.5),
            dict(target_miscoverage=0.1, initial_level=-0.1),
            dict(target_miscoverage=0.1, update_rule="weighted", decay=1.0),
            dict(target_miscoverage=0.1, update_rule="weighted", decay=0.0),
            dict(target_miscoverage=0.1, update_rule="momentum"),
            dict(target_miscoverage=0.1, step_size=math.inf),
            dict(target_miscoverage=0.1, decay=7.0),
            dict(target_miscoverage=0.1, decay=math.nan),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AciConfig(**kwargs)


class TestSimpleUpdate:
    def test_covered_step_raises_level(self):
        cfg = AciConfig(0.1, 0.005)
        state = update(init(cfg), 0)
        assert state.current_level == pytest.approx(0.1005, abs=1e-15)
        assert state.step_index == 2
        assert state.cumulative_err_count == 0

    def test_missed_step_lowers_level(self):
        cfg = AciConfig(0.1, 0.005)
        state = update(init(cfg), 1)
        assert state.current_level == pytest.approx(0.0955, abs=1e-15)
        assert state.cumulative_err_count == 1

    def test_monotonicity_in_err(self):
        cfg = AciConfig(0.2, 0.01)
        assert update(init(cfg), 1).current_level < update(init(cfg), 0).current_level

    def test_zero_gamma_freezes_level(self):
        cfg = AciConfig(0.1, 0.0, initial_level=0.3)
        _, levels = run_errs(cfg, [0, 1, 1, 0, 1])
        assert levels == [0.3] * 6

    def test_forced_err_below_zero(self):
        # Drive the level negative, then feed err=1; the update must coerce to 0.
        cfg = AciConfig(0.1, 0.05, initial_level=0.0)
        state = update(init(cfg), 1)  # level -> -0.045
        assert state.current_level < 0
        forced = update(state, 1)
        assert forced.cumulative_err_count == 1  # the second err was coerced to 0
        assert forced.current_level > state.current_level

    def test_forced_err_above_one(self):
        cfg = AciConfig(0.9, 0.2, initial_level=0.99)
        state = update(init(cfg), 0)  # level -> 1.17
        assert state.current_level > 1
        forced = update(state, 0)
        assert forced.cumulative_err_count == 1  # coerced to 1 despite the caller's 0
        assert forced.current_level < state.current_level

    def test_forced_err_at_one(self):
        # At alpha_t = 1 the set is already empty (metrics.replay writes (inf, -inf)).
        forced = update(init(AciConfig(0.1, 0.05, initial_level=1.0)), 0)
        assert forced.cumulative_err_count == 1
        assert forced.current_level == pytest.approx(1.0 + 0.05 * (0.1 - 1.0), abs=1e-15)

    def test_non_binary_err_rejected(self):
        with pytest.raises(ConfigurationError):
            update(init(AciConfig(0.1)), 2)


class TestWeightedUpdate:
    def test_first_step_coincides_with_simple(self):
        simple = AciConfig(0.1, 0.005, update_rule="simple")
        weighted = AciConfig(0.1, 0.005, update_rule="weighted", decay=0.95)
        for err in (0, 1):
            s = update(init(simple), err)
            w = update(init(weighted), err)
            assert w.current_level == s.current_level

    def test_hand_computed_two_steps(self):
        cfg = AciConfig(0.1, 0.005, update_rule="weighted", decay=0.95)
        state, _ = run_errs(cfg, [1, 0])
        # N_2 = 0.95, D_2 = 1.95, W_2 = 0.487179..., alpha_3 = 0.0935641025641...
        assert state.current_level == pytest.approx(0.0935641025641026, abs=1e-15)

    def test_recursion_matches_literal_weighted_sum(self):
        # O(t) oracle: recompute the normalized geometric weights from scratch
        # at every step and apply the update literally.
        rng = np.random.default_rng(7)
        decay, alpha, gamma = 0.9, 0.2, 0.01
        errs = (rng.random(200) < 0.3).astype(int)
        cfg = AciConfig(alpha, gamma, update_rule="weighted", decay=decay)
        state = init(cfg)
        level_oracle = cfg.initial_level
        for t in range(1, len(errs) + 1):
            hist = errs[:t].astype(float)
            weights = decay ** np.arange(t - 1, -1, -1)
            weighted_mean = float(np.sum(weights * hist) / np.sum(weights))
            level_oracle = level_oracle + gamma * (alpha - weighted_mean)
            state = update(state, int(errs[t - 1]))
            assert state.current_level == pytest.approx(level_oracle, abs=1e-12)
            expect_den = float(np.sum(decay ** np.arange(t)))
            assert state.weighted_err_denominator == pytest.approx(expect_den, rel=1e-12)


class TestPropBound:
    @pytest.mark.parametrize(
        "alpha1,gamma,horizon,expected",
        [(0.1, 0.005, 200, 0.905), (0.5, 0.01, 1, 51.0), (0.1, 0.005, 2500, 0.0724)],
    )
    def test_values(self, alpha1, gamma, horizon, expected):
        cfg = AciConfig(0.1, gamma, initial_level=alpha1)
        assert prop_bound(cfg, horizon) == pytest.approx(expected, rel=1e-12)

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="^horizon must be >= 1, got 0$"):
            prop_bound(AciConfig(0.1, 0.005), 0)

    def test_zero_gamma_is_undefined(self):
        with pytest.raises(DomainError):
            prop_bound(AciConfig(0.1, 0.0), 100)

    def test_huge_gamma_does_not_overflow(self):
        # horizon * gamma overflows to inf; the bound itself is about 1 / horizon.
        assert prop_bound(AciConfig(0.1, 1e308), 199) == pytest.approx(1 / 199, rel=1e-12)


class TestEmpiricalMiscoverage:
    def test_fraction(self):
        cfg = AciConfig(0.1, 0.005)
        state, _ = run_errs(cfg, [1, 0, 1, 0, 0, 0, 1, 0, 0, 0])
        assert empirical_miscoverage(state) == pytest.approx(0.3)

    def test_zero_errs(self):
        state, _ = run_errs(AciConfig(0.1), [0] * 5)
        assert empirical_miscoverage(state) == 0.0

    def test_fresh_state_has_no_data(self):
        with pytest.raises(NoDataError):
            empirical_miscoverage(init(AciConfig(0.1)))


class TestTrajectoryInvariants:
    """Seeded fuzz of the guarantees that hold path-wise for the simple rule."""

    def _random_trajectory(self, rng, n_steps=2000):
        alpha = rng.uniform(0.02, 0.5)
        gamma = rng.uniform(0.001, 0.2)
        alpha1 = rng.uniform(0.0, 1.0)
        cfg = AciConfig(alpha, gamma, initial_level=alpha1)
        state = init(cfg)
        crit = rng.random(n_steps)  # random score stream expressed as levels
        levels, errs = [], []
        for c in crit:
            levels.append(state.current_level)
            err = 1 if state.current_level >= c else 0
            state = update(state, err)
            errs.append(state.cumulative_err_count - (sum(errs)))
        return cfg, np.array(levels + [state.current_level]), np.array(errs)

    def test_level_stays_in_lemma_band(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            cfg, levels, _ = self._random_trajectory(rng)
            g = cfg.step_size
            assert np.all(levels >= -g - 1e-15) and np.all(levels <= 1 + g + 1e-15)

    def test_every_prefix_obeys_coverage_bound(self):
        for seed in range(25):
            rng = np.random.default_rng(seed + 100)
            cfg, _, errs = self._random_trajectory(rng)
            horizon = np.arange(1, len(errs) + 1)
            gap = np.abs(np.cumsum(errs) / horizon - cfg.target_miscoverage)
            bounds = (max(cfg.initial_level, 1 - cfg.initial_level) + cfg.step_size) / (
                horizon * cfg.step_size
            )
            assert np.all(gap <= bounds + 1e-12)

    def test_lattice_membership(self):
        # With (1 - alpha)/alpha integral and alpha_1 on the lattice, every
        # level stays on {alpha + k * gamma * alpha}.
        alpha, gamma = 0.1, 0.005
        cfg = AciConfig(alpha, gamma)
        rng = np.random.default_rng(3)
        state = init(cfg)
        spacing = gamma * alpha
        for _ in range(5000):
            state = update(state, int(rng.random() < 0.1))
            k = round((state.current_level - alpha) / spacing)
            assert abs(state.current_level - (alpha + k * spacing)) < 1e-9

    @given(
        target=st.floats(0.01, 0.99),
        gamma=st.floats(0.001, 1.0),
        alpha1=st.floats(0.0, 1.0),
        errs=st.lists(st.booleans(), min_size=1, max_size=300),
    )
    def test_any_error_sequence_keeps_band_and_prefix_bound(self, target, gamma, alpha1, errs):
        # Both guarantees hold for every sequence of reported bits, however
        # adversarial, because update() coerces the bit outside [0, 1].
        cfg = AciConfig(target, gamma, initial_level=alpha1)
        state = init(cfg)
        for horizon, err in enumerate(errs, start=1):
            state = update(state, int(err))
            assert -gamma <= state.current_level <= 1.0 + gamma
            gap = abs(empirical_miscoverage(state) - target)
            assert gap <= prop_bound(cfg, horizon)
