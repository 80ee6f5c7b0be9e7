"""Vectorized rollout-collector tests (lock-step envs, GAE, PPO wiring)."""

import numpy as np
import pytest

from repro.rl.nn import GaussianPolicyNetwork, ValueNetwork
from repro.rl.vector_rollout import VectorRolloutCollector


class CountingEnv:
    """Deterministic env: reward = -1 each step, episodes of length 5."""

    observation_size = 2
    action_size = 1

    def __init__(self, episode_len=5, truncated_flag=True):
        self.episode_len = episode_len
        self.truncated_flag = truncated_flag
        self.resets = 0
        self.t = 0

    def reset(self, seed=None):
        self.resets += 1
        self.t = 0
        return np.array([0.0, 0.0])

    def step_raw(self, action):
        self.t += 1
        done = self.t >= self.episode_len
        obs = np.array([self.t / self.episode_len, 1.0])
        return obs, -1.0, done, {"truncated": self.truncated_flag and done}


@pytest.fixture
def nets(rng):
    policy = GaussianPolicyNetwork(2, 1, (8,), rng=rng)
    value = ValueNetwork(2, (8,), rng=rng)
    return policy, value


class TestCollect:
    def test_batch_shapes(self, nets):
        policy, value = nets
        collector = VectorRolloutCollector(
            [CountingEnv() for _ in range(3)], policy, value, 0.9, 1.0, seed=0
        )
        batch = collector.collect(12)  # 4 steps x 3 envs
        assert len(batch) == 12
        assert batch.obs.shape == (12, 2)
        assert batch.actions.shape == (12, 1)
        assert batch.log_probs.shape == (12,)
        assert batch.advantages.shape == (12,)
        assert batch.value_targets.shape == (12,)
        assert collector.total_env_steps == 12

    def test_batch_size_must_divide(self, nets):
        policy, value = nets
        collector = VectorRolloutCollector(
            [CountingEnv(), CountingEnv()], policy, value, 0.9, 1.0, seed=0
        )
        with pytest.raises(ValueError):
            collector.collect(7)
        with pytest.raises(ValueError):
            collector.collect(0)

    def test_needs_at_least_one_env(self, nets):
        policy, value = nets
        with pytest.raises(ValueError):
            VectorRolloutCollector([], policy, value, 0.9, 1.0)

    def test_episode_returns_recorded_per_env(self, nets):
        policy, value = nets
        envs = [CountingEnv() for _ in range(2)]
        collector = VectorRolloutCollector(envs, policy, value, 0.9, 1.0, seed=0)
        batch = collector.collect(24)  # 12 steps/env: two episodes each + 2
        assert batch.episode_returns == [-5.0] * 4
        assert all(env.resets == 3 for env in envs)  # initial + 2 rollovers

    def test_dones_time_major_layout(self, nets):
        policy, value = nets
        collector = VectorRolloutCollector(
            [CountingEnv(), CountingEnv()], policy, value, 0.9, 1.0, seed=0
        )
        batch = collector.collect(20)  # 10 steps per env
        dones = batch.dones.reshape(10, 2)
        # Both envs end their 5-step episodes at slices 4 and 9.
        assert np.array_equal(dones.all(axis=1), np.arange(10) % 5 == 4)

    def test_fixed_seed_regression_batch_statistics(self, small_config):
        """Same seed -> identical batches; distinct seeds -> distinct."""
        from repro.meanfield.mfc_env import MeanFieldEnv

        def collect(seed):
            env = MeanFieldEnv(small_config, horizon=6, seed=0)
            envs = [env] + [env.clone() for _ in range(3)]
            policy = GaussianPolicyNetwork(
                env.observation_size, env.action_size, (8,), rng=1
            )
            value = ValueNetwork(env.observation_size, (8,), rng=2)
            collector = VectorRolloutCollector(
                envs, policy, value, 0.99, 0.95, seed=seed
            )
            return collector.collect(24)

        a, b, c = collect(9), collect(9), collect(10)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.allclose(a.advantages, b.advantages)
        assert not np.array_equal(a.actions, c.actions)
        # Truncation bootstrapping keeps the GAE targets finite and the
        # rewards non-positive (drops-only reward).
        assert np.all(np.isfinite(a.value_targets))
        assert np.all(a.rewards <= 0.0)


class TestPPOIntegration:
    def test_trainer_with_vector_collector(self, small_config, fast_ppo_config):
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.rl.ppo import PPOTrainer

        env = MeanFieldEnv(small_config, horizon=8, seed=0)
        trainer = PPOTrainer(env, fast_ppo_config, seed=0, num_envs=4)
        assert isinstance(trainer.collector, VectorRolloutCollector)
        stats = trainer.train_iteration()
        assert np.isfinite(stats.mean_episode_return)
        assert stats.env_steps == fast_ppo_config.train_batch_size

    def test_trainer_validates_divisibility(self, small_config, fast_ppo_config):
        from repro.meanfield.mfc_env import MeanFieldEnv
        from repro.rl.ppo import PPOTrainer

        env = MeanFieldEnv(small_config, horizon=8, seed=0)
        with pytest.raises(ValueError):
            PPOTrainer(env, fast_ppo_config, seed=0, num_envs=7)

    def test_trainer_requires_cloneable_env(self, fast_ppo_config):
        from repro.rl.ppo import PPOTrainer

        with pytest.raises(ValueError):
            PPOTrainer(CountingEnv(), fast_ppo_config, seed=0, num_envs=2)
