"""Tests for the sparse-topology batched graph environment."""

import pickle

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.experiments.parallel import EvalRequest, SweepExecutor
from repro.meanfield.decision_rule import DecisionRule
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    run_episodes_batched,
)
from repro.queueing.clients import (
    committed_counts_from_samples,
    packet_fractions_from_samples,
    stack_rules,
)
from repro.queueing.graph_env import BatchedGraphFiniteEnv
from repro.queueing.topology import TopologySpec


@pytest.fixture
def graph_config() -> SystemConfig:
    return SystemConfig(
        num_clients=120,
        num_queues=12,
        buffer_size=5,
        d=2,
        delta_t=2.0,
        episode_length=20,
        monte_carlo_runs=3,
    )


class TestConstruction:
    def test_rejects_mismatched_queue_count(self, graph_config):
        with pytest.raises(ValueError, match="topology covers"):
            BatchedGraphFiniteEnv(graph_config, TopologySpec.full_mesh(8))

    def test_rejects_unreachable_queues(self, graph_config):
        # Two dispatchers both wired to queues {0, 1}: the rest idle.
        top = TopologySpec("bad", 12, np.array([[0, 1], [0, 1]]))
        with pytest.raises(ValueError, match="unreachable"):
            BatchedGraphFiniteEnv(graph_config, top)

    def test_accepts_per_queue_service_rates(self, graph_config):
        rates = np.linspace(0.5, 2.0, 12)
        env = BatchedGraphFiniteEnv(
            graph_config,
            TopologySpec.ring(12, radius=1),
            num_replicas=2,
            service_rates=rates,
        )
        assert np.array_equal(env.service_rates, rates)


def _graph_samples(config, top, num_clients, num_replicas, seed):
    """The graph env's sample stage: ``(E, N, d)`` neighborhood draws."""
    env = BatchedGraphFiniteEnv(
        config.with_updates(num_clients=num_clients),
        top,
        num_replicas=num_replicas,
        seed=seed,
    )
    return env._sample(config.d)


class TestSamplingKernels:
    def test_samples_stay_in_neighborhood(self, graph_config, rng):
        top = TopologySpec.ring(12, radius=1)
        states = rng.integers(0, 6, size=(2, 12))
        rule = DecisionRule.join_shortest(6, 2)
        sampled = _graph_samples(graph_config, top, 60, 2, seed=0)
        assert sampled.shape == (2, 60, 2)
        disp = top.client_dispatchers(60)
        allowed = top.neighbors[disp]  # (N, degree)
        for e in range(2):
            for i in range(60):
                assert set(sampled[e, i]) <= set(allowed[i])
        counts = committed_counts_from_samples(
            states, sampled, stack_rules(rule, 2), np.random.default_rng(0)
        )
        assert np.array_equal(counts.sum(axis=1), [60, 60])
        for e in range(2):
            # Every commitment lands on a queue the replica sampled.
            assert set(np.flatnonzero(counts[e])) <= set(sampled[e].ravel())

    def test_degree_one_routes_every_client_home(self, graph_config):
        """Radius-0 ring: every client can only reach its own node's queue."""
        top = TopologySpec.ring(12, radius=0)
        states = np.zeros((1, 12), dtype=np.int64)
        rule = DecisionRule.uniform(6, 2)
        sampled = _graph_samples(graph_config, top, 120, 1, seed=1)
        counts = committed_counts_from_samples(
            states, sampled, stack_rules(rule, 1), np.random.default_rng(1)
        )
        disp = top.client_dispatchers(120)
        expected = np.bincount(top.neighbors[disp, 0], minlength=12)
        assert np.array_equal(counts[0], expected)

    def test_rate_fractions_sum_to_one(self, graph_config, rng):
        top = TopologySpec.random_regular(12, 4, seed=0)
        states = rng.integers(0, 6, size=(3, 12))
        rule = DecisionRule.join_shortest(6, 2)
        sampled = _graph_samples(graph_config, top, 200, 3, seed=2)
        fractions = packet_fractions_from_samples(
            states, sampled, stack_rules(rule, 3), 200
        )
        assert fractions.shape == (3, 12)
        assert np.allclose(fractions.sum(axis=1), 1.0)
        assert fractions.min() >= 0


class TestFullMeshEquivalence:
    """Full-mesh graph simulation is bit-identical to the dense backend."""

    @pytest.mark.parametrize("per_packet", [False, True])
    def test_episode_bit_identical(self, graph_config, per_packet):
        policy = JoinShortestQueuePolicy(6, 2)
        dense = BatchedFiniteSystemEnv(
            graph_config,
            num_replicas=3,
            per_packet_randomization=per_packet,
            seed=11,
        )
        graph = BatchedGraphFiniteEnv(
            graph_config,
            TopologySpec.full_mesh(12),
            num_replicas=3,
            per_packet_randomization=per_packet,
            seed=11,
        )
        a = run_episodes_batched(
            dense, policy, num_epochs=15, seed=5, record_distributions=True
        )
        b = run_episodes_batched(
            graph, policy, num_epochs=15, seed=5, record_distributions=True
        )
        assert np.array_equal(a.per_epoch_drops, b.per_epoch_drops)
        assert np.array_equal(
            a.empirical_distributions, b.empirical_distributions
        )
        assert np.array_equal(dense.queue_states, graph.queue_states)
        assert np.array_equal(dense.lam_modes, graph.lam_modes)

    def test_multi_node_mesh_also_identical(self, graph_config):
        """Bit-identity does not depend on collapsing to one dispatcher:
        any topology whose rows are the identity permutation matches."""
        policy = RandomPolicy(6, 2)
        mesh = TopologySpec(
            "full-mesh", 12, np.tile(np.arange(12), (5, 1))
        )
        dense = BatchedFiniteSystemEnv(graph_config, num_replicas=2, seed=3)
        graph = BatchedGraphFiniteEnv(
            graph_config, mesh, num_replicas=2, seed=3
        )
        a = run_episodes_batched(dense, policy, num_epochs=10, seed=9)
        b = run_episodes_batched(graph, policy, num_epochs=10, seed=9)
        assert np.array_equal(a.per_epoch_drops, b.per_epoch_drops)


class TestSparseBehaviour:
    def test_sparse_topology_changes_the_law(self, graph_config):
        """A radius-1 ring must diverge from the dense system (locality
        binds), while staying a valid simulation."""
        policy = JoinShortestQueuePolicy(6, 2)
        dense = BatchedFiniteSystemEnv(graph_config, num_replicas=4, seed=0)
        ring = BatchedGraphFiniteEnv(
            graph_config, TopologySpec.ring(12, radius=1), num_replicas=4,
            seed=0,
        )
        a = run_episodes_batched(dense, policy, num_epochs=25, seed=1)
        b = run_episodes_batched(ring, policy, num_epochs=25, seed=1)
        assert not np.array_equal(a.per_epoch_drops, b.per_epoch_drops)
        assert b.total_drops_per_queue.min() >= 0

    def test_step_with_policy_and_rewards(self, graph_config):
        env = BatchedGraphFiniteEnv(
            graph_config, TopologySpec.torus(12, radius=1), num_replicas=3,
            seed=2,
        )
        env.reset(seed=4)
        hists, rewards, info = env.step_with_policy(
            JoinShortestQueuePolicy(6, 2)
        )
        assert hists.shape == (3, 6)
        assert np.allclose(hists.sum(axis=1), 1.0)
        assert rewards.shape == (3,)
        assert info["arrival_rates"].shape == (3, 12)


class TestOrchestration:
    def test_env_pickles(self, graph_config):
        env = BatchedGraphFiniteEnv(
            graph_config, TopologySpec.random_regular(12, 3, seed=1),
            num_replicas=2, seed=0,
        )
        env.reset(seed=5)
        clone = pickle.loads(pickle.dumps(env))
        assert np.array_equal(env.queue_states, clone.queue_states)
        assert np.array_equal(
            env.topology.neighbors, clone.topology.neighbors
        )

    def test_sharded_sweep_bit_identical(self, graph_config):
        """Graph envs shard through the process pool unchanged."""
        request = EvalRequest(
            config=graph_config,
            policy=JoinShortestQueuePolicy(6, 2),
            num_runs=4,
            num_epochs=10,
            seed=0,
            max_batch_replicas=2,
            env_cls=BatchedGraphFiniteEnv,
            env_kwargs={
                "topology": TopologySpec.ring(12, radius=2),
                "per_packet_randomization": True,
            },
        )
        serial = SweepExecutor(workers=1).run_drops([request])
        sharded = SweepExecutor(workers=2).run_drops([request])
        assert np.array_equal(serial[0], sharded[0])
