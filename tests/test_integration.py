"""End-to-end integration tests across the whole stack.

These mirror the paper's experimental pipeline at toy scale: train (or
load) an MF policy on the mean-field MDP, deploy it in the finite
N-client/M-queue system via Algorithm 1, and check the qualitative
claims (delay sensitivity, mean-field convergence, policy ordering).
"""

import numpy as np
import pytest

from repro.config import SystemConfig, paper_system_config
from repro.experiments.pretrained import get_mf_policy
from repro.meanfield.convergence import trajectory_gap
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.batched_env import BatchedFiniteSystemEnv, run_episodes_batched
from repro.rl.evaluation import evaluate_policies_mfc


@pytest.fixture(scope="module")
def mf_policy_dt5():
    policy, source = get_mf_policy(5.0)
    assert source == "checkpoint"
    return policy


class TestPretrainedPolicyQuality:
    def test_mf_beats_both_baselines_in_mean_field_at_dt5(self, mf_policy_dt5):
        cfg = paper_system_config(delta_t=5.0, num_queues=100)
        env = MeanFieldEnv(cfg, horizon=100, seed=0)
        evals = evaluate_policies_mfc(
            env,
            {
                "MF": mf_policy_dt5,
                "JSQ": JoinShortestQueuePolicy(6, 2),
                "RND": RandomPolicy(6, 2),
            },
            episodes=10,
            seed=1,
        )
        assert evals["MF"].mean > evals["JSQ"].mean
        assert evals["MF"].mean > evals["RND"].mean

    def test_mf_policy_works_in_finite_system(self, mf_policy_dt5):
        """Algorithm 1: the upper-level policy learned on the mean field
        drives the finite system through empirical distributions."""
        cfg = SystemConfig(
            num_clients=900, num_queues=30, delta_t=5.0, monte_carlo_runs=2
        )
        env = BatchedFiniteSystemEnv(cfg, num_replicas=1, seed=0)
        result = run_episodes_batched(env, mf_policy_dt5, num_epochs=30, seed=2)
        assert np.isfinite(result.total_drops_per_queue).all()
        assert result.total_drops_per_queue[0] >= 0

    def test_mf_beats_jsq_in_finite_system_at_dt5(self, mf_policy_dt5):
        """Figure 5's claim transported to the finite system (small M)."""
        cfg = SystemConfig(
            num_clients=3600, num_queues=60, delta_t=5.0
        )
        totals = {"MF": 0.0, "JSQ": 0.0, "RND": 0.0}
        policies = {
            "MF": mf_policy_dt5,
            "JSQ": JoinShortestQueuePolicy(6, 2),
            "RND": RandomPolicy(6, 2),
        }
        for name, policy in policies.items():
            for seed in range(4):
                env = BatchedFiniteSystemEnv(cfg, num_replicas=1, seed=seed)
                totals[name] += run_episodes_batched(
                    env, policy, num_epochs=50, seed=seed
                ).mean_total_drops
        assert totals["MF"] < totals["JSQ"]
        assert totals["MF"] < totals["RND"]


class TestTheorem1EndToEnd:
    def test_learned_policy_trajectory_converges(self, mf_policy_dt5):
        """The state-dependent learned policy also satisfies the
        mean-field convergence (Theorem 1 holds for any policy)."""
        modes = np.zeros(12, dtype=int)

        def gap(m):
            cfg = SystemConfig(
                num_clients=m * m, num_queues=m, delta_t=5.0
            )
            gaps = [
                trajectory_gap(
                    cfg, mf_policy_dt5, 12, mode_sequence=modes, seed=s
                ).sup_l1_gap
                for s in range(3)
            ]
            return float(np.mean(gaps))

        assert gap(120) < gap(12)

    def test_finite_drops_approach_mean_field_value(self, mf_policy_dt5):
        """Figure 4 shape: |finite - MF| shrinks with the system size."""
        modes = np.zeros(20, dtype=int)

        def drop_gap(m, seeds=3):
            cfg = SystemConfig(num_clients=m * m, num_queues=m, delta_t=5.0)
            gaps = [
                trajectory_gap(
                    cfg, mf_policy_dt5, 20, mode_sequence=modes, seed=s
                ).total_drop_gap
                for s in range(seeds)
            ]
            return float(np.mean(gaps))

        assert drop_gap(100) < drop_gap(10)


class TestDelaySensitivity:
    def test_jsq_rnd_crossover_exists(self):
        """In the mean-field model JSQ wins at Δt=1 and loses to RND at
        Δt=10 (the motivation for learning in between)."""
        def mf_return(policy, delta_t):
            cfg = SystemConfig(delta_t=delta_t)
            steps = round(300 / delta_t)
            env = MeanFieldEnv(cfg, horizon=steps, seed=0)
            return np.mean([env.rollout_return(policy, seed=s) for s in range(4)])

        jsq, rnd = JoinShortestQueuePolicy(6, 2), RandomPolicy(6, 2)
        assert mf_return(jsq, 1.0) > mf_return(rnd, 1.0)
        assert mf_return(jsq, 10.0) < mf_return(rnd, 10.0)

    def test_all_pretrained_policies_load_and_emit_rules(self):
        nu = np.full(6, 1 / 6)
        for dt in (1.0, 3.0, 5.0, 7.0, 10.0):
            policy, source = get_mf_policy(dt)
            assert source == "checkpoint"
            rule = policy.decision_rule(nu, 0)
            assert np.allclose(rule.probs.sum(axis=-1), 1.0)
