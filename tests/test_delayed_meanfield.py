"""Delay-mixture mean-field propagator (repro.meanfield.delayed)."""

import numpy as np
import pytest

from repro.config import paper_system_config
from repro.meanfield.convergence import mean_field_trajectory
from repro.meanfield.delayed import (
    DelayedMeanFieldPropagator,
    delayed_arrival_rates,
    delayed_local_epoch_update,
    delayed_mean_field_trajectory,
)
from repro.meanfield.discretization import epoch_update, per_state_arrival_rates
from repro.meanfield.local import local_epoch_update
from repro.meanfield.decision_rule import DecisionRule
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.delays import (
    DeterministicDelay,
    IIDDelay,
    MarkovModulatedDelay,
)
from repro.queueing.topology import TopologySpec

MODES = np.asarray([0, 1, 0, 0, 1, 1, 0, 1, 0, 0] * 4)


@pytest.fixture()
def config():
    return paper_system_config(num_queues=100).with_updates(delta_t=5.0)


@pytest.fixture()
def jsq(config):
    return JoinShortestQueuePolicy(config.num_queue_states, config.d)


class TestPointMassReduction:
    def test_zero_delay_reproduces_fixed_delta_t(self, config, jsq):
        """Acceptance criterion: a point mass at age 0 reproduces the
        paper's fixed-Δt mean-field trajectory to <= 1e-10."""
        nus0, drops0 = mean_field_trajectory(config, jsq, MODES)
        nus1, drops1 = delayed_mean_field_trajectory(
            config, jsq, MODES, DeterministicDelay(0)
        )
        assert np.abs(nus1 - nus0).max() <= 1e-10
        assert np.abs(drops1 - drops0).max() <= 1e-10

    @pytest.mark.parametrize("delta_t", [1.0, 3.0, 10.0])
    def test_reduction_across_delays(self, delta_t, jsq):
        cfg = paper_system_config(num_queues=100).with_updates(
            delta_t=delta_t
        )
        policy = JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d)
        nus0, drops0 = mean_field_trajectory(cfg, policy, MODES[:20])
        nus1, drops1 = delayed_mean_field_trajectory(
            cfg, policy, MODES[:20], DeterministicDelay(0)
        )
        assert np.abs(nus1 - nus0).max() <= 1e-10
        assert np.abs(drops1 - drops0).max() <= 1e-10

    @pytest.mark.parametrize("delta_t", [1.0, 3.0, 5.0, 10.0])
    def test_closure_reduces_at_all_mass_on_age_zero(self, delta_t):
        """K = 2 with all mass at age 0 runs the closure, not the K = 0
        shortcut, and must still reproduce the fixed-Δt trajectory."""
        cfg = paper_system_config(num_queues=100).with_updates(
            delta_t=delta_t
        )
        policy = JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d)
        nus0, drops0 = mean_field_trajectory(cfg, policy, MODES)
        nus1, drops1 = delayed_mean_field_trajectory(
            cfg, policy, MODES, IIDDelay((1.0, 0.0, 0.0))
        )
        assert np.abs(nus1 - nus0).max() <= 1e-10
        assert np.abs(drops1 - drops0).max() <= 1e-10

    def test_rates_reduce_exactly_at_age_zero(self, config, jsq):
        rule = jsq.decision_rule(
            np.asarray([0.2, 0.3, 0.2, 0.1, 0.1, 0.1]), 0, None
        )
        nu = np.asarray([0.2, 0.3, 0.2, 0.1, 0.1, 0.1])
        direct = per_state_arrival_rates(nu, rule, 0.9)
        mixed = delayed_arrival_rates(
            [nu], [np.eye(nu.size)], [direct], np.asarray([1.0])
        )
        assert np.allclose(mixed, direct, rtol=1e-14, atol=0)


class TestDelayMixture:
    def test_arrival_mass_conservation(self, config, jsq):
        """Σ_z ν_t(z) r(z) = λ for any delay distribution and history."""
        s = config.num_queue_states
        propagator = DelayedMeanFieldPropagator(
            np.eye(s)[0], max_delay=3, service=1.0, delta_t=config.delta_t
        )
        rule = jsq.decision_rule(np.eye(s)[0], 0, None)
        pmf = np.asarray([0.4, 0.3, 0.2, 0.1])
        for _ in range(6):
            nus, phis = propagator._history()
            age_rates = [per_state_arrival_rates(nu, rule, 0.9) for nu in nus]
            rates = delayed_arrival_rates(nus, phis, age_rates, pmf)
            assert float(nus[0] @ rates) == pytest.approx(0.9, rel=1e-9)
            propagator.step(rule, 0.9, pmf)

    def test_state_independent_rule_unaffected_by_delay(self, config):
        """RND routes uniformly regardless of observations, so any delay
        distribution yields the same trajectory (the closure is exact)."""
        rnd = RandomPolicy(config.num_queue_states, config.d)
        nus0, drops0 = delayed_mean_field_trajectory(
            config, rnd, MODES[:20], DeterministicDelay(0)
        )
        nus1, drops1 = delayed_mean_field_trajectory(
            config, rnd, MODES[:20], IIDDelay([0.2, 0.3, 0.5])
        )
        assert np.allclose(nus1, nus0, atol=1e-10)
        assert np.allclose(drops1, drops0, atol=1e-10)

    def test_staleness_hurts_jsq(self, config, jsq):
        """Extra observation delay on top of Δt=5 worsens delayed-JSQ's
        drops in the mean-field model (the paper's Figure-5 mechanism)."""
        overloaded = config.with_updates(
            arrival_rate_high=1.0, arrival_rate_low=0.8
        )
        _, fresh = delayed_mean_field_trajectory(
            overloaded, jsq, MODES, DeterministicDelay(0)
        )
        _, stale = delayed_mean_field_trajectory(
            overloaded, jsq, MODES, DeterministicDelay(3)
        )
        assert stale.sum() > fresh.sum()

    def test_regime_sequence_switches_pmfs(self, config, jsq):
        model = MarkovModulatedDelay.synced_degraded()
        regimes = np.zeros(20, dtype=np.intp)
        nus_synced, _ = delayed_mean_field_trajectory(
            config, jsq, MODES[:20], model, regime_sequence=regimes
        )
        nus_base, _ = delayed_mean_field_trajectory(
            config, jsq, MODES[:20], DeterministicDelay(0)
        )
        assert np.allclose(nus_synced, nus_base, atol=1e-10)
        degraded = np.ones(20, dtype=np.intp)
        nus_deg, _ = delayed_mean_field_trajectory(
            config, jsq, MODES[:20], model, regime_sequence=degraded
        )
        assert not np.allclose(nus_deg, nus_base, atol=1e-6)

    def test_history_validation(self, config, jsq):
        s = config.num_queue_states
        nu = np.full(s, 1.0 / s)
        rule = jsq.decision_rule(nu, 0, None)
        with pytest.raises(ValueError):
            delayed_arrival_rates(
                [nu],
                [np.eye(s)],
                [per_state_arrival_rates(nu, rule, 0.9)],
                np.asarray([0.5, 0.5]),
            )
        with pytest.raises(ValueError):
            DelayedMeanFieldPropagator(nu, max_delay=-1, service=1.0, delta_t=1.0)

    @pytest.mark.parametrize("max_delay", [0, 2])
    def test_step_returns_the_next_law(self, config, jsq, max_delay):
        """``step`` returns ``(ν_{t+1}, drops)``; at K = 0 it is exactly
        ``epoch_update``."""
        s = config.num_queue_states
        nu = np.asarray([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
        rule = jsq.decision_rule(nu, 0, None)
        pmf = np.zeros(max_delay + 1)
        pmf[0] = 1.0
        prop = DelayedMeanFieldPropagator(nu, max_delay, 1.0, config.delta_t)
        nu_next, drops = prop.step(rule, 0.9, pmf)
        assert nu_next.shape == (s,)
        assert np.array_equal(nu_next, prop.nu)
        if max_delay == 0:
            expected_nu, expected_drops = epoch_update(
                nu, rule, 0.9, 1.0, config.delta_t
            )
            assert np.array_equal(nu_next, expected_nu)
            assert drops == expected_drops
        # Stored laws are handed out uncopied, so they are read-only; the
        # returned law is the caller's own copy.
        with pytest.raises(ValueError):
            prop.laws(0)[0] = 1.0
        nu_next[0] = 1.0
        assert prop.laws(0)[0] != 1.0


class TestUnweightedAges:
    """Eq. 22 is evaluated only for snapshot ages that carry weight."""

    def test_closure_skips_ages_without_weight(self, config, jsq):
        s = config.num_queue_states
        prop = DelayedMeanFieldPropagator(np.eye(s)[0], 3, 1.0, config.delta_t)
        rule = jsq.decision_rule(np.eye(s)[0], 0, None)
        for _ in range(4):
            prop.step(rule, 0.9, np.asarray([0.4, 0.3, 0.2, 0.1]))
        nus, phis = prop._history()
        pmf = np.asarray([0.6, 0.0, 0.4, 0.0])
        full = [per_state_arrival_rates(nu, rule, 0.9) for nu in nus]
        sparse = [r if p > 0 else None for r, p in zip(full, pmf)]
        assert np.array_equal(
            delayed_arrival_rates(nus, phis, sparse, pmf),
            delayed_arrival_rates(nus, phis, full, pmf),
        )

    def test_synced_regime_evaluates_one_age(self, config, jsq, monkeypatch):
        """K = 3 with pmf (1, 0, 0, 0): one rate evaluation per epoch."""
        import repro.meanfield.delayed as delayed

        calls = []
        real = delayed.per_state_arrival_rates
        monkeypatch.setattr(
            delayed,
            "per_state_arrival_rates",
            lambda *a: calls.append(1) or real(*a),
        )
        s = config.num_queue_states
        prop = DelayedMeanFieldPropagator(np.eye(s)[0], 3, 1.0, config.delta_t)
        rule = jsq.decision_rule(np.eye(s)[0], 0, None)
        for _ in range(5):
            prop.step(rule, 0.9, np.asarray([1.0, 0.0, 0.0, 0.0]))
        assert len(calls) == 5

    def test_hybrid_evaluates_weighted_replica_ages_only(self, monkeypatch):
        """Delayed hybrid: one Eq. 22 row per (replica, weighted age), in
        one stacked call per weighted age."""
        import repro.queueing.hybrid_env as hybrid_env
        from repro.queueing.hybrid_env import BatchedHybridFleetEnv

        cfg = paper_system_config(num_queues=20, num_clients=200)
        model = MarkovModulatedDelay.synced_degraded(p_degrade=0.5)
        env = BatchedHybridFleetEnv(
            cfg, 4, 10, delay_model=model, per_packet_randomization=True,
            seed=3,
        )
        env.reset(seed=3)
        policy = JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d)
        rule = policy.decision_rule(np.eye(cfg.num_queue_states)[0], 0, None)
        rows = []
        real = hybrid_env.per_state_arrival_rates
        monkeypatch.setattr(
            hybrid_env,
            "per_state_arrival_rates",
            lambda nu, *a: rows.append(len(nu)) or real(nu, *a),
        )
        expected_rows = expected_calls = 0
        for _ in range(6):
            pmfs = model.pmfs[env._ring.regimes]
            expected_rows += int((pmfs > 0.0).sum())
            expected_calls += int((pmfs > 0.0).any(axis=0).sum())
            env.step(rule)
        assert sum(rows) == expected_rows
        assert len(rows) == expected_calls
        assert expected_rows < 6 * 4 * (model.max_delay + 1)


class TestDelayedLocal:
    def test_reduces_to_local_epoch_update(self):
        """Point mass at age 0 on a sparse topology reproduces the local
        propagator exactly."""
        topology = TopologySpec.ring(12, radius=2)
        s = 4
        rng = np.random.default_rng(1)
        nus = rng.dirichlet(np.ones(s), size=12)
        rule = DecisionRule.join_shortest(s, 2)
        expected_nus, expected_drops = local_epoch_update(
            nus, topology, rule, 0.8, 1.0, 2.0
        )
        got_nus, got_drops, transitions = delayed_local_epoch_update(
            [nus],
            [np.broadcast_to(np.eye(s), (12, s, s))],
            topology,
            rule,
            0.8,
            1.0,
            2.0,
            np.asarray([1.0]),
        )
        assert np.abs(got_nus - expected_nus).max() <= 1e-10
        assert np.abs(got_drops - expected_drops).max() <= 1e-10
        assert transitions.shape == (12, s, s)
        assert np.allclose(transitions.sum(axis=2), 1.0)

    def test_mixture_conserves_mass_per_epoch(self):
        topology = TopologySpec.ring(10, radius=1)
        s = 4
        rule = DecisionRule.join_shortest(s, 2)
        lam = 0.7
        nus = np.zeros((10, s))
        nus[:, 0] = 1.0
        history = [nus, nus, nus]
        phis = [np.broadcast_to(np.eye(s), (10, s, s))] * 3
        pmf = np.asarray([0.5, 0.3, 0.2])
        for _ in range(4):
            nus_next, drops, transitions = delayed_local_epoch_update(
                history, phis, topology, rule, lam, 1.0, 2.0, pmf
            )
            assert np.all(drops >= -1e-12)
            assert np.allclose(nus_next.sum(axis=1), 1.0)
            history = [nus_next] + history[:2]
            phis = [
                np.broadcast_to(np.eye(s), (10, s, s)),
                np.einsum("mzs,msk->mzk", phis[0], transitions),
                np.einsum("mzs,msk->mzk", phis[1], transitions),
            ]
