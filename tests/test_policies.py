"""Tests for the policy layer: static baselines and the neural policy."""

import numpy as np
import pytest

from repro.meanfield.decision_rule import DecisionRule
from repro.policies.learned import NeuralPolicy
from repro.policies.static import (
    ConstantRulePolicy,
    JoinShortestQueuePolicy,
    RandomPolicy,
    ThresholdPolicy,
)
from repro.rl.nn import GaussianPolicyNetwork


class TestStaticPolicies:
    def test_jsq_emits_eq34_rule(self):
        policy = JoinShortestQueuePolicy(6, 2)
        rule = policy.decision_rule(np.full(6, 1 / 6), 0)
        assert rule == DecisionRule.join_shortest(6, 2)
        assert policy.name == "JSQ(2)"
        assert policy.is_stationary()

    def test_rnd_emits_eq35_rule(self):
        policy = RandomPolicy(6, 2)
        rule = policy.decision_rule(np.full(6, 1 / 6), 1)
        assert rule == DecisionRule.uniform(6, 2)
        assert policy.name == "RND"

    def test_rule_independent_of_state(self, rng):
        policy = JoinShortestQueuePolicy(6, 2)
        rules = [
            policy.decision_rule(rng.dirichlet(np.ones(6)), mode)
            for mode in (0, 1)
        ]
        assert rules[0] == rules[1]

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(6, 2, 7)
        assert ThresholdPolicy(6, 2, 0).rule == DecisionRule.uniform(6, 2)
        assert ThresholdPolicy(6, 2, 6).rule == DecisionRule.join_shortest(6, 2)
        assert ThresholdPolicy(6, 2, 3).name == "THR(3)"

    def test_constant_rule_custom_name(self):
        policy = ConstantRulePolicy(DecisionRule.uniform(4, 2), name="MyRule")
        assert policy.name == "MyRule"


class TestNeuralPolicy:
    @pytest.fixture
    def network(self, rng):
        return GaussianPolicyNetwork(8, 72, (16,), rng=rng)

    def test_geometry_validation(self, rng):
        bad = GaussianPolicyNetwork(5, 72, (8,), rng=rng)
        with pytest.raises(ValueError, match="obs_dim"):
            NeuralPolicy(bad, num_states=6, d=2, num_modes=2)
        bad2 = GaussianPolicyNetwork(8, 10, (8,), rng=rng)
        with pytest.raises(ValueError, match="action_dim"):
            NeuralPolicy(bad2, num_states=6, d=2, num_modes=2)

    def test_emits_valid_rule(self, network, rng):
        policy = NeuralPolicy(network, num_states=6, d=2, num_modes=2)
        rule = policy.decision_rule(rng.dirichlet(np.ones(6)), 0)
        assert rule.num_states == 6 and rule.d == 2
        assert np.allclose(rule.probs.sum(axis=-1), 1.0)

    def test_deterministic_is_repeatable(self, network, rng):
        policy = NeuralPolicy(network, 6, 2, 2, deterministic=True)
        nu = rng.dirichlet(np.ones(6))
        r1 = policy.decision_rule(nu, 0, np.random.default_rng(0))
        r2 = policy.decision_rule(nu, 0, np.random.default_rng(99))
        assert r1 == r2

    def test_stochastic_mode_varies(self, network, rng):
        policy = NeuralPolicy(network, 6, 2, 2, deterministic=False)
        nu = rng.dirichlet(np.ones(6))
        r1 = policy.decision_rule(nu, 0, np.random.default_rng(0))
        r2 = policy.decision_rule(nu, 0, np.random.default_rng(1))
        assert r1 != r2

    def test_observation_layout(self, network):
        policy = NeuralPolicy(network, 6, 2, 2)
        nu = np.full(6, 1 / 6)
        obs = policy.observation(nu, 1)
        assert obs.shape == (8,)
        assert np.allclose(obs[:6], nu)
        assert obs[6] == 0.0 and obs[7] == 1.0

    def test_observation_validation(self, network):
        policy = NeuralPolicy(network, 6, 2, 2)
        with pytest.raises(ValueError):
            policy.observation(np.ones(5), 0)
        with pytest.raises(ValueError):
            policy.observation(np.full(6, 1 / 6), 2)

    def test_save_load_roundtrip(self, network, tmp_path, rng):
        policy = NeuralPolicy(network, 6, 2, 2, label="MF-test")
        path = policy.save(tmp_path / "ckpt.npz", extra_meta={"note": "hi"})
        loaded = NeuralPolicy.load(path)
        assert loaded.name == "MF-test"
        nu = rng.dirichlet(np.ones(6))
        assert loaded.decision_rule(nu, 0) == policy.decision_rule(nu, 0)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            NeuralPolicy.load(tmp_path / "nope.npz")

    def test_responds_to_distribution_changes(self, network, rng):
        """A (random-weight) network policy is state-dependent, unlike the
        static baselines — the rule differs across observations."""
        # push weights so outputs differ measurably across inputs
        for key, value in network.trunk.params.items():
            if key.startswith("W"):
                value *= 50.0
        policy = NeuralPolicy(network, 6, 2, 2)
        nu_a = np.zeros(6)
        nu_a[0] = 1.0
        nu_b = np.zeros(6)
        nu_b[5] = 1.0
        r_a = policy.decision_rule(nu_a, 0)
        r_b = policy.decision_rule(nu_b, 0)
        assert r_a != r_b
