"""Tests for the replica-batched simulation backend."""

import numpy as np
import pytest

from repro.execution import ExecutionContext
from repro.meanfield.decision_rule import DecisionRule
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.arrivals import MarkovModulatedRate, ScriptedRate
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    BatchedInfiniteClientEnv,
    run_episodes_batched,
)
from repro.queueing.backends import draw_uniform_queue_samples, get_backend
from repro.queueing.clients import (
    committed_counts_multinomial,
    infinite_client_rates_batched,
    packet_fractions_from_samples,
    sample_client_choices_batched,
    stack_rules,
)
from repro.queueing.queue_ctmc import simulate_queues_epoch_batched


class TestGeometry:
    def test_invalid_num_replicas(self, small_config):
        with pytest.raises(ValueError):
            BatchedFiniteSystemEnv(small_config, num_replicas=0)

    def test_requires_reset(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=3, seed=0)
        with pytest.raises(RuntimeError):
            env.empirical_distributions()
        with pytest.raises(RuntimeError):
            env.step(DecisionRule.uniform(6, 2))

    def test_state_shapes(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=4, seed=0)
        hists = env.reset(seed=1)
        m = small_config.num_queues
        assert hists.shape == (4, 6)
        assert np.allclose(hists.sum(axis=1), 1.0)
        assert env.queue_states.shape == (4, m)
        assert env.lam_modes.shape == (4,)
        assert env.current_rates.shape == (4,)
        hists, rewards, info = env.step(DecisionRule.uniform(6, 2))
        assert hists.shape == (4, 6)
        assert rewards.shape == (4,)
        assert info["drops_total"].shape == (4,)
        assert info["arrival_rates"].shape == (4, m)

    def test_rule_geometry_validated(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=2, seed=0)
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(4, 2))
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(6, 3))

    def test_per_replica_rule_count_validated(self, small_config):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=3, seed=0)
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step([DecisionRule.uniform(6, 2)] * 2)  # 2 rules, 3 replicas

    def test_stack_rules_geometry(self):
        jsq = DecisionRule.join_shortest(6, 2)
        stacked = stack_rules(jsq, 5)
        assert stacked.shape == (5, 6, 6, 2)
        with pytest.raises(ValueError):
            stack_rules([jsq, DecisionRule.uniform(4, 2)], 2)

    def test_batched_kernel_validation(self):
        with pytest.raises(ValueError):
            simulate_queues_epoch_batched(
                np.zeros(5, dtype=int), np.zeros((1, 5)), 1.0, 1.0, 5
            )
        with pytest.raises(ValueError):
            simulate_queues_epoch_batched(
                np.zeros((2, 5), dtype=int), np.zeros((2, 4)), 1.0, 1.0, 5
            )

    def test_service_rate_override_validated(self, small_config):
        with pytest.raises(ValueError):
            BatchedFiniteSystemEnv(
                small_config, num_replicas=2, service_rates=np.ones(3)
            )


def _reference_episode(config, policy, num_epochs, seed, mode):
    """One system stepped by hand from the kernel primitives.

    ``mode`` is ``"committed"``, ``"per-packet"`` or ``"infinite"``.
    Mirrors Algorithm 1 for a single system: reset, then per epoch query
    the policy, route (one multinomial count draw under committed
    choice, Eq. 3-5; sampled clients thinned per packet; or Eq. 14-15
    without client draws), serve for ``Δt`` and advance the arrival
    mode.
    """
    rng = np.random.default_rng(seed)
    arrivals = MarkovModulatedRate.from_config(config)
    m, n, s = config.num_queues, config.num_clients, config.num_queue_states
    states = np.full((1, m), config.initial_state, dtype=np.int64)
    modes = arrivals.sample_initial_modes_batch(1, rng)
    drops = np.empty(num_epochs)
    for t in range(num_epochs):
        hist = np.bincount(states[0], minlength=s) / m
        rule = policy.decision_rule(hist, int(modes[0]), rng)
        lam = arrivals.levels[modes][:, None]
        probs = stack_rules(rule, 1)
        if mode == "infinite":
            rates = infinite_client_rates_batched(states, rule, lam[:, 0])
        elif mode == "per-packet":
            sampled = draw_uniform_queue_samples(rng, 1, n, config.d, m)
            rates = m * lam * packet_fractions_from_samples(
                states, sampled, probs, n
            )
        else:
            counts = committed_counts_multinomial(states, probs, n, rng)
            rates = m * lam * counts.astype(np.float64) / n
        states, dropped = simulate_queues_epoch_batched(
            states,
            rates,
            np.full(m, config.service_rate),
            config.delta_t,
            config.buffer_size,
            rng,
        )
        modes = arrivals.step_modes_batch(modes, rng)
        drops[t] = dropped.sum() / m
    return drops


class TestScalarEquivalence:
    """The single-system case (``E = 1``) of the batched environments is
    bit-identical to the same system stepped by hand from the kernel
    primitives."""

    def test_client_kernels_bit_identical(self, rng):
        """The epoch kernel's choose stage commits the clients exactly like
        the per-client reference sampler that feeds the event-driven
        cross-check."""
        states = rng.integers(0, 6, size=(1, 20))
        rule = DecisionRule.join_shortest(6, 2)
        _, _, committed = sample_client_choices_batched(
            states, 100, rule, np.random.default_rng(3)
        )
        kernel_rng = np.random.default_rng(3)
        sampled = draw_uniform_queue_samples(kernel_rng, 1, 100, 2, 20)
        counts = get_backend("numpy").committed_counts(
            states, sampled, stack_rules(rule, 1), kernel_rng
        )
        assert np.array_equal(counts[0], np.bincount(committed[0], minlength=20))

    @pytest.mark.parametrize("per_packet", [False, True])
    def test_finite_episode_bit_identical(self, small_config, per_packet):
        policy = JoinShortestQueuePolicy(6, 2)
        reference = _reference_episode(
            small_config,
            policy,
            num_epochs=20,
            seed=42,
            mode="per-packet" if per_packet else "committed",
        )
        batched = run_episodes_batched(
            BatchedFiniteSystemEnv(
                small_config,
                num_replicas=1,
                per_packet_randomization=per_packet,
                seed=0,
            ),
            policy,
            num_epochs=20,
            seed=42,
        )
        assert np.array_equal(reference, batched.per_epoch_drops[0])

    def test_infinite_episode_bit_identical(self, small_config):
        policy = RandomPolicy(6, 2)
        reference = _reference_episode(
            small_config, policy, num_epochs=20, seed=5, mode="infinite"
        )
        batched = run_episodes_batched(
            BatchedInfiniteClientEnv(small_config, num_replicas=1, seed=0),
            policy,
            num_epochs=20,
            seed=5,
        )
        assert np.array_equal(reference, batched.per_epoch_drops[0])


class TestBatchedDynamics:
    def test_states_remain_in_buffer_range(self, small_config, rng):
        env = BatchedFiniteSystemEnv(small_config, num_replicas=5, seed=rng)
        env.reset(rng)
        rule = DecisionRule.join_shortest(6, 2)
        for _ in range(10):
            env.step(rule)
            states = env.queue_states
            assert states.min() >= 0
            assert states.max() <= small_config.buffer_size

    def test_reproducibility(self, small_config):
        results = []
        for _ in range(2):
            env = BatchedFiniteSystemEnv(small_config, num_replicas=4)
            result = run_episodes_batched(
                env, RandomPolicy(6, 2), num_epochs=10, seed=42
            )
            results.append(result.total_drops_per_queue)
        assert np.array_equal(results[0], results[1])

    def test_replicas_are_independent(self, small_config):
        """Different replicas see different draws (not copies)."""
        env = BatchedFiniteSystemEnv(small_config, num_replicas=8, seed=0)
        result = run_episodes_batched(env, RandomPolicy(6, 2), num_epochs=20, seed=3)
        assert np.unique(result.total_drops_per_queue).size > 1

    def test_scripted_rate_shared_across_replicas(self, small_config):
        """ScriptedRate conditions all replicas on one mode trajectory."""
        scripted = ScriptedRate([0.9, 0.6], [0, 1, 0, 1, 0])
        env = BatchedFiniteSystemEnv(
            small_config, num_replicas=3, arrival_process=scripted, seed=0
        )
        env.reset(seed=1)
        assert np.array_equal(env.lam_modes, [0, 0, 0])
        env.step(DecisionRule.uniform(6, 2))
        assert np.array_equal(env.lam_modes, [1, 1, 1])

    def test_mixed_per_replica_rules(self, small_config):
        """JSQ replicas should out-perform join-longest replicas."""
        env = BatchedFiniteSystemEnv(small_config, num_replicas=4, seed=0)
        env.reset(seed=2)
        rules = [
            DecisionRule.join_shortest(6, 2),
            DecisionRule.join_shortest(6, 2),
            DecisionRule.join_longest(6, 2),
            DecisionRule.join_longest(6, 2),
        ]
        total = np.zeros(4)
        for _ in range(25):
            _, _, info = env.step(rules)
            total += info["drops_per_queue"]
        assert total[:2].sum() < total[2:].sum()

    def test_statistical_equivalence_with_scalar(self, small_config):
        """Lock-step E-replica drops match E independent single-system
        (E = 1) runs in distribution (z-test on the mean, generous
        bound)."""
        policy = RandomPolicy(6, 2)
        runs = 24
        batched = run_episodes_batched(
            BatchedFiniteSystemEnv(small_config, num_replicas=runs, seed=0),
            policy,
            num_epochs=25,
            seed=0,
        ).total_drops_per_queue
        scalar = np.concatenate(
            [
                run_episodes_batched(
                    BatchedFiniteSystemEnv(
                        small_config, num_replicas=1, seed=100 + i
                    ),
                    policy,
                    num_epochs=25,
                    seed=200 + i,
                ).total_drops_per_queue
                for i in range(runs)
            ]
        )
        se = np.hypot(
            batched.std(ddof=1) / np.sqrt(runs), scalar.std(ddof=1) / np.sqrt(runs)
        )
        assert abs(batched.mean() - scalar.mean()) < 4.0 * se


class TestRunnerBackends:
    def test_backends_agree_in_distribution(self, small_config):
        """One lock-step chunk of 16 replicas and 16 single-replica
        chunks draw different streams but the same law."""
        from repro.experiments.runner import evaluate_policy_finite

        policy = RandomPolicy(6, 2)
        a = evaluate_policy_finite(
            small_config, policy, num_runs=16, num_epochs=15, seed=0,
            context=ExecutionContext(max_batch_replicas=16),
        )
        b = evaluate_policy_finite(
            small_config, policy, num_runs=16, num_epochs=15, seed=0,
            context=ExecutionContext(max_batch_replicas=1),
        )
        se = np.hypot(
            a.drops.std(ddof=1) / 4.0, b.drops.std(ddof=1) / 4.0
        )
        assert abs(a.mean_drops - b.mean_drops) < 4.0 * se

    def test_batched_backend_chunking(self, small_config):
        from repro.experiments.runner import evaluate_policy_finite

        policy = RandomPolicy(6, 2)
        context = ExecutionContext(max_batch_replicas=3)
        result = evaluate_policy_finite(
            small_config, policy, num_runs=7, num_epochs=5, seed=3,
            context=context,
        )
        assert result.drops.shape == (7,)
        repeat = evaluate_policy_finite(
            small_config, policy, num_runs=7, num_epochs=5, seed=3,
            context=context,
        )
        assert np.array_equal(result.drops, repeat.drops)

    def test_unknown_backend_rejected(self, small_config):
        from repro.experiments.parallel import EvalRequest

        with pytest.raises(ValueError, match="turbo"):
            EvalRequest(
                config=small_config,
                policy=RandomPolicy(6, 2),
                num_runs=2,
                sim_backend="turbo",
            )


class TestBatchedPolicyQueries:
    def test_neural_batch_matches_loop(self, small_config):
        from repro.policies.learned import NeuralPolicy
        from repro.rl.nn import GaussianPolicyNetwork

        net = GaussianPolicyNetwork(6 + 2, 6 * 6 * 2, (16,), rng=0)
        policy = NeuralPolicy(net, num_states=6, d=2, num_modes=2)
        rng = np.random.default_rng(0)
        nus = rng.dirichlet(np.ones(6), size=5)
        modes = np.array([0, 1, 0, 1, 1])
        batch = policy.decision_rules_batch(nus, modes)
        for i in range(5):
            single = policy.decision_rule(nus[i], int(modes[i]))
            assert np.allclose(batch[i].probs, single.probs)

    def test_lockstep_mfc_evaluation_matches_sequential(self, small_config):
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.rl.evaluation import evaluate_policy_mfc

        env = MeanFieldEnv(small_config, horizon=15, seed=0)
        policy = JoinShortestQueuePolicy(6, 2)
        fast = evaluate_policy_mfc(env, policy, episodes=6, seed=11, lockstep=True)
        slow = evaluate_policy_mfc(env, policy, episodes=6, seed=11, lockstep=False)
        assert fast.mean == pytest.approx(slow.mean, rel=1e-9)

    def test_lockstep_clones_do_not_share_scripted_cursor(self, small_config):
        """Each lock-step clone replays the full scripted trajectory
        (a shared cursor would show every E-th mode per episode)."""
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.rl.evaluation import evaluate_policy_mfc

        scripted = ScriptedRate([0.9, 0.6], [0, 1] * 10)
        env = MeanFieldEnv(
            small_config, horizon=12, arrival_process=scripted, seed=0
        )
        policy = JoinShortestQueuePolicy(6, 2)
        fast = evaluate_policy_mfc(env, policy, episodes=4, seed=3, lockstep=True)
        slow = evaluate_policy_mfc(env, policy, episodes=4, seed=3, lockstep=False)
        assert fast.mean == pytest.approx(slow.mean, rel=1e-9)

    def test_lockstep_keeps_stochastic_policies_stochastic(self, small_config):
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.policies.learned import NeuralPolicy
        from repro.rl.evaluation import evaluate_policy_mfc
        from repro.rl.nn import GaussianPolicyNetwork

        net = GaussianPolicyNetwork(6 + 2, 6 * 6 * 2, (8,), rng=0)
        noisy = NeuralPolicy(net, num_states=6, d=2, deterministic=False)
        mean_only = NeuralPolicy(net, num_states=6, d=2, deterministic=True)
        env = MeanFieldEnv(small_config, horizon=10, seed=0)
        a = evaluate_policy_mfc(env, noisy, episodes=4, seed=7, lockstep=True)
        b = evaluate_policy_mfc(env, mean_only, episodes=4, seed=7, lockstep=True)
        assert a.mean != pytest.approx(b.mean)
