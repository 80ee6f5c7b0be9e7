"""Tests for the CEM solver and behavior-cloning warm start."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import RandomPolicy
from repro.rl.cem import optimize_constant_rule
from repro.rl.evaluation import evaluate_policies_mfc, evaluate_policy_mfc
from repro.rl.imitation import clone_rule, collect_visited_observations
from repro.rl.nn import GaussianPolicyNetwork


@pytest.fixture
def env():
    cfg = SystemConfig(delta_t=5.0)
    return MeanFieldEnv(cfg, horizon=40, seed=0)


class TestCEM:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            optimize_constant_rule(env, generations=0)
        with pytest.raises(ValueError):
            optimize_constant_rule(env, population=1)
        with pytest.raises(ValueError):
            optimize_constant_rule(env, elite_fraction=0.0)

    def test_result_fields(self, env):
        result = optimize_constant_rule(
            env, generations=2, population=6, episodes_per_candidate=1, seed=0
        )
        assert isinstance(result.rule, DecisionRule)
        assert len(result.history) == 2
        assert result.generations == 2
        assert np.isfinite(result.best_return)
        assert result.policy.name == "CEM"

    def test_symmetrize_flag(self, env):
        result = optimize_constant_rule(
            env, generations=2, population=6, episodes_per_candidate=1,
            seed=0, symmetrize=True,
        )
        assert result.rule.is_symmetric(atol=1e-9)

    def test_beats_rnd_at_moderate_budget(self, env):
        """Even a small CEM budget must beat uniform routing at Δt=5."""
        result = optimize_constant_rule(
            env, generations=6, population=16, episodes_per_candidate=2, seed=1
        )
        evals = evaluate_policies_mfc(
            env,
            {"cem": result.policy, "rnd": RandomPolicy(6, 2)},
            episodes=10,
            seed=3,
        )
        assert evals["cem"].mean > evals["rnd"].mean

    def test_generation_fleet_equals_candidates_scored_alone(self, env, rng):
        """A generation is scored as one lock-step fleet; candidate i's
        return equals its episodes played alone, one at a time, on the
        same spawned generators, bit for bit."""
        from repro.policies.static import ConstantRulePolicy
        from repro.rl.cem import _generation_returns
        from repro.utils.rng import spawn_generators

        candidates = rng.random((5, env.action_size))
        episodes, steps = 3, 12
        fleet = _generation_returns(
            env, candidates, episodes, steps, np.random.default_rng(4)
        )
        seeds = spawn_generators(np.random.default_rng(4), 5 * episodes)
        for i, raw in enumerate(candidates):
            policy = ConstantRulePolicy(DecisionRule.from_raw(raw, 6, 2))
            alone = [
                env.rollout_return(
                    policy, num_steps=steps, seed=seeds[i * episodes + k]
                )
                for k in range(episodes)
            ]
            assert fleet[i] == np.mean(alone)

    def test_reproducible(self, env):
        a = optimize_constant_rule(env, generations=2, population=6, seed=5)
        b = optimize_constant_rule(env, generations=2, population=6, seed=5)
        assert a.rule == b.rule
        assert a.history == b.history


class TestImitation:
    def test_collect_observations_shape(self, env):
        rule = DecisionRule.uniform(6, 2)
        obs = collect_visited_observations(env, rule, episodes=2, num_steps=10, seed=0)
        assert obs.shape[1] == env.observation_size
        assert obs.shape[0] == 2 * 11  # initial obs + 10 steps per episode

    def test_clone_recovers_rule(self, env, rng):
        target = DecisionRule.join_shortest(6, 2)
        net = GaussianPolicyNetwork(8, 72, (32, 32), rng=rng)
        obs = collect_visited_observations(env, target, episodes=3, seed=0)
        mse = clone_rule(net, target, obs, epochs=400, learning_rate=3e-3, seed=0)
        assert mse < 1e-3
        # network mean, normalized, reproduces the rule at visited obs
        mu, _, _ = net.forward(obs[:5])
        for row in mu:
            rebuilt = DecisionRule.from_raw(row, 6, 2)
            assert rebuilt.distance(target) < 0.05

    def test_clone_validates_shapes(self, env, rng):
        net = GaussianPolicyNetwork(8, 72, (8,), rng=rng)
        with pytest.raises(ValueError):
            clone_rule(net, DecisionRule.uniform(6, 2), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            clone_rule(net, DecisionRule.uniform(4, 2), np.zeros((4, 8)))

    def test_cloned_policy_matches_rule_performance(self, env, rng):
        """End-to-end: CEM rule -> cloned network -> same MFC return."""
        from repro.policies.learned import NeuralPolicy
        from repro.policies.static import ConstantRulePolicy

        result = optimize_constant_rule(
            env, generations=3, population=8, episodes_per_candidate=1, seed=2
        )
        net = GaussianPolicyNetwork(8, 72, (32, 32), rng=rng)
        obs = collect_visited_observations(env, result.rule, episodes=3, seed=1)
        clone_rule(net, result.rule, obs, epochs=500, learning_rate=3e-3, seed=1)
        neural = NeuralPolicy(net, 6, 2, 2)
        ci_rule = evaluate_policy_mfc(
            env, ConstantRulePolicy(result.rule), episodes=8, seed=11
        )
        ci_net = evaluate_policy_mfc(env, neural, episodes=8, seed=11)
        assert ci_net.mean == pytest.approx(ci_rule.mean, abs=1.5)
