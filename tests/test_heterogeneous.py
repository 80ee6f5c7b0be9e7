"""Tests for the heterogeneous-server extension (SED baseline)."""

import numpy as np
import pytest

from repro.meanfield.decision_rule import DecisionRule
from repro.policies.static import ConstantRulePolicy
from repro.queueing.batched_env import run_episodes_batched
from repro.queueing.heterogeneous import (
    BatchedHeterogeneousFiniteEnv,
    ServerClassSpec,
    jsq_rule_heterogeneous,
    rnd_rule_heterogeneous,
    sed_rule,
)


@pytest.fixture
def spec():
    return ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))


def one_replica(config, spec, **kwargs):
    """One replica of the heterogeneous system."""
    return BatchedHeterogeneousFiniteEnv(config, spec, num_replicas=1, **kwargs)


class TestServerClassSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerClassSpec((1.0,), (0.5, 0.5))
        with pytest.raises(ValueError):
            ServerClassSpec((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            ServerClassSpec((1.0, 2.0), (0.6, 0.6))
        with pytest.raises(ValueError):
            ServerClassSpec((), ())

    def test_encode_decode_roundtrip(self, spec, rng):
        z = rng.integers(0, 6, size=50)
        c = rng.integers(0, 2, size=50)
        observed = spec.encode(z, c)
        z2, c2 = spec.decode(observed)
        assert np.array_equal(z, z2)
        assert np.array_equal(c, c2)

    def test_num_observed_states(self, spec):
        assert spec.num_observed_states(5) == 12

    def test_assign_classes_respects_fractions(self, spec):
        classes = spec.assign_classes(10)
        assert classes.shape == (10,)
        assert (classes == 0).sum() == 5
        assert (classes == 1).sum() == 5

    def test_assign_classes_rounds_remainders(self):
        spec = ServerClassSpec((1.0, 2.0, 3.0), (1 / 3, 1 / 3, 1 / 3))
        classes = spec.assign_classes(10)
        counts = np.bincount(classes, minlength=3)
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_mean_service_rate(self, spec):
        assert spec.mean_service_rate() == pytest.approx(1.25)


class TestRules:
    def test_sed_prefers_fast_server_at_equal_fill(self, spec):
        rule = sed_rule(spec, buffer_size=5, d=2)
        # both queues at filling 2; slot 0 slow (c=0), slot 1 fast (c=1)
        o_slow = spec.encode(np.array(2), np.array(0))
        o_fast = spec.encode(np.array(2), np.array(1))
        probs = rule.action_probs(np.array([int(o_slow), int(o_fast)]))
        assert probs[1] == 1.0  # expected delay 3/2.0 < 3/0.5

    def test_sed_equals_jsq_when_homogeneous(self):
        homo = ServerClassSpec((1.0, 1.0), (0.5, 0.5))
        sed = sed_rule(homo, buffer_size=3, d=2)
        jsq = jsq_rule_heterogeneous(homo, buffer_size=3, d=2)
        assert sed.distance(jsq) < 1e-12

    def test_sed_can_pick_longer_queue_on_fast_server(self, spec):
        rule = sed_rule(spec, buffer_size=5, d=2)
        # slow server filling 1 -> delay 2/0.5 = 4; fast filling 4 -> 5/2 = 2.5
        o_a = int(spec.encode(np.array(1), np.array(0)))
        o_b = int(spec.encode(np.array(4), np.array(1)))
        probs = rule.action_probs(np.array([o_a, o_b]))
        assert probs[1] == 1.0

    def test_jsq_rule_is_class_blind(self, spec):
        rule = jsq_rule_heterogeneous(spec, buffer_size=5, d=2)
        o_a = int(spec.encode(np.array(1), np.array(0)))
        o_b = int(spec.encode(np.array(4), np.array(1)))
        probs = rule.action_probs(np.array([o_a, o_b]))
        assert probs[0] == 1.0  # shorter queue wins regardless of speed

    def test_rnd_rule_uniform(self, spec):
        rule = rnd_rule_heterogeneous(spec, buffer_size=5, d=2)
        assert np.allclose(rule.probs, 0.5)

    def test_rules_are_row_stochastic(self, spec):
        for rule in (
            sed_rule(spec, 5, 2),
            jsq_rule_heterogeneous(spec, 5, 2),
            sed_rule(spec, 3, 3),
        ):
            assert np.allclose(rule.probs.sum(axis=-1), 1.0)


class TestHeterogeneousEnv:
    def test_reset_and_step(self, small_config, spec):
        env = one_replica(small_config, spec, seed=0)
        hist = env.reset(seed=1)
        assert hist.shape == (1, 12)
        assert hist.sum() == pytest.approx(1.0)
        rule = sed_rule(spec, small_config.buffer_size, small_config.d)
        hist2, rewards, info = env.step(rule)
        assert hist2.sum() == pytest.approx(1.0)
        assert rewards[0] <= 0
        assert info["drops_total"][0] >= 0

    def test_rule_geometry_enforced(self, small_config, spec):
        env = one_replica(small_config, spec, seed=0)
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(6, 2))  # homogeneous rule

    def test_requires_reset(self, small_config, spec):
        env = one_replica(small_config, spec, seed=0)
        with pytest.raises(RuntimeError):
            env.observed_states()

    def test_service_rates_assigned_by_class(self, small_config, spec):
        env = one_replica(small_config, spec, seed=0)
        assert np.all(np.isin(env.service_rates, [0.5, 2.0]))
        assert (env.service_rates == 0.5).sum() == small_config.num_queues // 2

    def test_sed_beats_jsq_with_heterogeneous_servers(self, small_config):
        """The motivation for SED: class-blind JSQ wastes fast servers."""
        spec = ServerClassSpec((0.25, 4.0), (0.5, 0.5))
        cfg = small_config.with_updates(
            num_queues=40, num_clients=1600, delta_t=2.0
        )
        sed = sed_rule(spec, cfg.buffer_size, cfg.d)
        jsq = jsq_rule_heterogeneous(spec, cfg.buffer_size, cfg.d)
        sed_drops, jsq_drops = 0.0, 0.0
        for seed in range(4):
            env = one_replica(cfg, spec, seed=seed)
            sed_drops += run_episodes_batched(
                env, ConstantRulePolicy(sed), num_epochs=40, seed=seed
            ).mean_total_drops
            env2 = one_replica(cfg, spec, seed=seed + 100)
            jsq_drops += run_episodes_batched(
                env2, ConstantRulePolicy(jsq), num_epochs=40, seed=seed
            ).mean_total_drops
        assert sed_drops < jsq_drops

    def test_infinite_client_mode_conserves_arrival_mass(self, small_config, spec):
        from repro.queueing.arrivals import ScriptedRate

        scripted = ScriptedRate([0.9, 0.6], [0] * 10)
        env = one_replica(
            small_config, spec, arrival_process=scripted,
            infinite_clients=True, seed=0,
        )
        env.reset(seed=1)
        rule = sed_rule(spec, small_config.buffer_size, small_config.d)
        _, _, info = env.step(rule)
        # total arrival mass is conserved: Σ_j λ_j = M·λ_t with λ_t = 0.9
        assert info["arrival_rates"].sum() == pytest.approx(
            small_config.num_queues * 0.9
        )
        assert info["arrival_rates"].min() >= 0
