"""Tests for the finite-system environments (Algorithm 1) at ``E = 1``."""

import numpy as np
import pytest

from repro.meanfield.decision_rule import DecisionRule
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.arrivals import ScriptedRate
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    BatchedInfiniteClientEnv,
    run_episodes_batched,
)


def finite_env(config, **kwargs):
    """One replica of the ``N``-client system."""
    return BatchedFiniteSystemEnv(config, num_replicas=1, **kwargs)


def infinite_env(config, **kwargs):
    """One replica of the ``N → ∞`` system."""
    return BatchedInfiniteClientEnv(config, num_replicas=1, **kwargs)


class TestLifecycle:
    def test_requires_reset(self, small_config):
        env = finite_env(small_config, seed=0)
        with pytest.raises(RuntimeError):
            env.empirical_distributions()
        with pytest.raises(RuntimeError):
            env.step(DecisionRule.uniform(6, 2))

    def test_reset_initial_state(self, small_config):
        env = finite_env(small_config, seed=0)
        hist = env.reset(seed=1)[0]
        assert hist[small_config.initial_state] == pytest.approx(1.0)
        assert env.t == 0
        assert env.lam_modes[0] in (0, 1)

    def test_step_returns_valid_distribution(self, small_config):
        env = finite_env(small_config, seed=0)
        env.reset(seed=1)
        hists, rewards, info = env.step(DecisionRule.uniform(6, 2))
        assert hists.shape == (1, 6)
        assert hists.sum() == pytest.approx(1.0)
        assert rewards[0] <= 0
        assert info["drops_total"][0] >= 0
        assert info["t"] == 1

    def test_rule_geometry_validated(self, small_config):
        env = finite_env(small_config, seed=0)
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(4, 2))
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(6, 3))

    def test_states_remain_in_buffer_range(self, small_config, rng):
        env = finite_env(small_config, seed=rng)
        env.reset(rng)
        rule = DecisionRule.join_shortest(6, 2)
        for _ in range(20):
            env.step(rule)
            states = env.queue_states
            assert states.min() >= 0
            assert states.max() <= small_config.buffer_size

    def test_reproducibility(self, small_config):
        results = []
        for _ in range(2):
            env = finite_env(small_config)
            env.reset(seed=42)
            rule = DecisionRule.uniform(6, 2)
            drops = [int(env.step(rule)[2]["drops_total"][0]) for _ in range(10)]
            results.append(drops)
        assert results[0] == results[1]

    def test_service_rate_override_validated(self, small_config):
        with pytest.raises(ValueError):
            finite_env(small_config, service_rates=np.ones(3))
        with pytest.raises(ValueError):
            finite_env(
                small_config,
                service_rates=np.zeros(small_config.num_queues),
            )


class TestFrozenRates:
    def test_finite_rates_scale(self, small_config):
        """Total frozen rate = M·λ_t exactly (counts sum to N)."""
        env = finite_env(small_config, seed=0)
        env.reset(seed=3)
        _, _, info = env.step(DecisionRule.uniform(6, 2))
        total = info["arrival_rates"].sum()
        m = small_config.num_queues
        assert total == pytest.approx(m * 0.9) or total == pytest.approx(m * 0.6)

    def test_infinite_client_rates_deterministic(self, small_config):
        """Given the same states/mode, infinite-client rates are exact."""
        scripted = ScriptedRate([0.9, 0.6], [0] * 10)
        env_a = infinite_env(small_config, arrival_process=scripted, seed=0)
        env_b = infinite_env(small_config, arrival_process=scripted, seed=99)
        env_a.reset(seed=1)
        env_b.reset(seed=2)
        rule = DecisionRule.join_shortest(6, 2)
        ra = env_a.step(rule)[2]["arrival_rates"]
        rb = env_b.step(rule)[2]["arrival_rates"]
        # both start from identical deterministic initial states
        assert np.allclose(ra, rb)

    def test_infinite_clients_have_less_rate_variance(self, small_config):
        """Client-side noise vanishes in the N → ∞ system."""
        scripted_modes = [0] * 6
        rule = DecisionRule.join_shortest(6, 2)

        def rate_spread(make_env, seed):
            env = make_env(
                small_config,
                arrival_process=ScriptedRate([0.9, 0.6], scripted_modes),
                seed=seed,
            )
            env.reset(seed=seed)
            env.step(rule)  # move off the deterministic start
            spreads = []
            for _ in range(4):
                _, _, info = env.step(rule)
                spreads.append(info["arrival_rates"].std())
            return np.mean(spreads)

        few_clients = small_config.with_updates(num_clients=30)
        env_finite = finite_env(
            few_clients,
            arrival_process=ScriptedRate([0.9, 0.6], scripted_modes),
            seed=5,
        )
        env_finite.reset(seed=5)
        env_finite.step(rule)
        finite_spread = np.mean(
            [env_finite.step(rule)[2]["arrival_rates"].std() for _ in range(4)]
        )
        infinite_spread = rate_spread(infinite_env, 5)
        # the finite 30-client system has lumpy rates; the limit is smooth
        assert finite_spread > infinite_spread


class TestRunEpisode:
    def test_episode_result_fields(self, small_config):
        env = finite_env(small_config, seed=0)
        policy = RandomPolicy(6, 2)
        result = run_episodes_batched(env, policy, num_epochs=15, seed=4)
        assert result.num_epochs == 15
        assert result.per_epoch_drops.shape == (1, 15)
        assert result.total_drops_per_queue[0] == pytest.approx(
            result.per_epoch_drops.sum()
        )
        assert result.total_drops_per_queue[0] >= 0

    def test_default_epochs_follow_paper_rule(self, small_config):
        cfg = small_config.with_updates(delta_t=10.0)
        env = finite_env(cfg, seed=0)
        result = run_episodes_batched(env, RandomPolicy(6, 2), seed=4)
        assert result.num_epochs == 50  # round(500/10)

    def test_record_distributions(self, small_config):
        env = finite_env(small_config, seed=0)
        result = run_episodes_batched(
            env, JoinShortestQueuePolicy(6, 2), num_epochs=5, seed=4,
            record_distributions=True,
        )
        assert result.empirical_distributions.shape == (1, 6, 6)
        assert np.allclose(result.empirical_distributions.sum(axis=2), 1.0)

    def test_jsq_beats_rnd_at_small_delay(self, small_config):
        """At Δt=1 JSQ(2) should clearly dominate RND (paper Figure 5)."""
        cfg = small_config.with_updates(delta_t=1.0, num_queues=50, num_clients=2500)
        drops = {}
        for name, policy in [
            ("jsq", JoinShortestQueuePolicy(6, 2)),
            ("rnd", RandomPolicy(6, 2)),
        ]:
            total = 0.0
            for seed in range(3):
                env = finite_env(cfg, seed=seed)
                total += run_episodes_batched(
                    env, policy, num_epochs=60, seed=seed
                ).mean_total_drops
            drops[name] = total
        assert drops["jsq"] < drops["rnd"]


class TestPerPacketRandomization:
    def test_rate_mass_conserved(self, small_config):
        from repro.queueing.arrivals import ScriptedRate

        cfg = small_config.with_updates(num_clients=small_config.num_queues)
        env = finite_env(
            cfg,
            arrival_process=ScriptedRate([0.9, 0.6], [0] * 5),
            per_packet_randomization=True,
            seed=0,
        )
        env.reset(seed=1)
        _, _, info = env.step(DecisionRule.uniform(6, 2))
        assert info["arrival_rates"].sum() == pytest.approx(
            cfg.num_queues * 0.9
        )

    def test_smoother_rates_than_committed_for_stochastic_rule(self, small_config):
        """With N = M and the RND rule, per-packet thinning removes the
        per-client commitment lumpiness (paper Figure 6 setting)."""
        cfg = small_config.with_updates(num_clients=small_config.num_queues)
        rule = DecisionRule.uniform(6, 2)

        def mean_rate_std(per_packet, seeds=5):
            stds = []
            for seed in range(seeds):
                env = finite_env(
                    cfg, per_packet_randomization=per_packet, seed=seed
                )
                env.reset(seed=seed)
                env.step(rule)
                _, _, info = env.step(rule)
                stds.append(info["arrival_rates"].std())
            return float(np.mean(stds))

        assert mean_rate_std(True) < mean_rate_std(False)

    def test_identical_in_law_for_deterministic_rule(self, small_config):
        """For JSQ (deterministic given z̄) the two modes coincide in
        distribution — all of a client's packets go the same way."""
        rule = DecisionRule.join_shortest(6, 2)
        cfg = small_config.with_updates(num_queues=40, num_clients=40)

        def mean_drops(per_packet, seeds=6):
            total = 0.0
            for seed in range(seeds):
                env = finite_env(
                    cfg, per_packet_randomization=per_packet, seed=seed
                )
                total += run_episodes_batched(
                    env, JoinShortestQueuePolicy(6, 2), num_epochs=25, seed=seed
                ).mean_total_drops
            return total / seeds

        a = mean_drops(True)
        b = mean_drops(False)
        assert a == pytest.approx(b, rel=0.2)
