"""Tests for the stationary (fixed-point) mean-field analysis."""

import numpy as np
import pytest

from repro.meanfield.analytic import (
    mm1b_drop_rate,
    mm1b_stationary_distribution,
)
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import epoch_update
from repro.meanfield.stationary import stationary_distribution


def _drops_per_time(rule, lam, service, delta_t) -> float:
    """Steady-state drops per queue per unit time under a constant rule."""
    result = stationary_distribution(rule, lam, service, delta_t)
    return result.drops_per_epoch / delta_t


class TestFixedPoint:
    def test_rnd_fixed_point_is_mm1b(self):
        rule = DecisionRule.uniform(6, 2)
        result = stationary_distribution(rule, 0.8, 1.0, 2.0)
        assert result.converged
        pi = mm1b_stationary_distribution(0.8, 1.0, 5)
        assert np.abs(result.nu - pi).max() < 1e-9
        assert result.drops_per_epoch / 2.0 == pytest.approx(
            mm1b_drop_rate(0.8, 1.0, 5), rel=1e-6
        )

    def test_fixed_point_is_actually_fixed(self):
        rule = DecisionRule.join_shortest(6, 2)
        result = stationary_distribution(rule, 0.9, 1.0, 5.0)
        assert result.converged
        nu_next, _ = epoch_update(result.nu, rule, 0.9, 1.0, 5.0)
        assert np.abs(nu_next - result.nu).sum() < 1e-10

    def test_independent_of_initialization(self):
        rule = DecisionRule.join_shortest(6, 2)
        a = stationary_distribution(rule, 0.9, 1.0, 3.0)
        init = np.zeros(6)
        init[5] = 1.0
        b = stationary_distribution(rule, 0.9, 1.0, 3.0, initial=init)
        assert np.abs(a.nu - b.nu).max() < 1e-9

    def test_damped_iteration_reaches_same_point(self):
        rule = DecisionRule.join_shortest(6, 2)
        plain = stationary_distribution(rule, 0.9, 1.0, 5.0)
        damped = stationary_distribution(rule, 0.9, 1.0, 5.0, damping=0.5)
        assert np.abs(plain.nu - damped.nu).max() < 1e-9

    def test_jsq_beats_rnd_in_steady_state_at_small_delay(self):
        jsq = DecisionRule.join_shortest(6, 2)
        rnd = DecisionRule.uniform(6, 2)
        assert _drops_per_time(jsq, 0.9, 1.0, 0.5) < _drops_per_time(
            rnd, 0.9, 1.0, 0.5
        )

    def test_jsq_herding_at_large_delay(self):
        """In steady state, JSQ's per-time drops overtake RND's as Δt
        grows — the paper's central phenomenon, now in closed loop."""
        jsq = DecisionRule.join_shortest(6, 2)
        rnd = DecisionRule.uniform(6, 2)
        lam = 0.9
        rnd_rate = _drops_per_time(rnd, lam, 1.0, 10.0)
        jsq_rate = _drops_per_time(jsq, lam, 1.0, 10.0)
        assert jsq_rate > rnd_rate

    def test_drop_rate_monotone_in_load(self):
        rule = DecisionRule.join_shortest(6, 2)
        rates = [_drops_per_time(rule, lam, 1.0, 2.0) for lam in (0.5, 0.7, 0.9)]
        assert rates == sorted(rates)

    def test_result_properties(self):
        rule = DecisionRule.uniform(6, 2)
        result = stationary_distribution(rule, 0.8, 1.0, 1.0)
        assert 0 <= result.fill_probability <= 1
        assert 0 <= result.mean_queue_length <= 5
        assert result.iterations >= 1

    def test_validation(self):
        rule = DecisionRule.uniform(4, 2)
        with pytest.raises(ValueError):
            stationary_distribution(rule, 0.8, 1.0, 1.0, damping=1.0)
        with pytest.raises(ValueError):
            stationary_distribution(rule, 0.8, 1.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            stationary_distribution(rule, 0.8, 1.0, 1.0, initial=np.ones(4))
