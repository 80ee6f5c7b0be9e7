"""Single-environment rollout collection (batching, episode handling,
bootstrapping): the ``E = 1`` case of the vectorized collector."""

import numpy as np
import pytest

from repro.rl.nn import GaussianPolicyNetwork, ValueNetwork
from repro.rl.vector_rollout import VectorRolloutCollector


def single_env_collector(env, policy, value, gamma, gae_lambda, seed=None):
    """A collector over the single environment ``env``."""
    return VectorRolloutCollector([env], policy, value, gamma, gae_lambda, seed=seed)


class CountingEnv:
    """Deterministic env: reward = -1 each step, episodes of length 5.

    Tracks reset calls so tests can verify episode bookkeeping.
    """

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
        collector = single_env_collector(CountingEnv(), policy, value, 0.9, 1.0, seed=0)
        batch = collector.collect(12)
        assert len(batch) == 12
        assert batch.obs.shape == (12, 2)
        assert batch.actions.shape == (12, 1)
        assert batch.log_probs.shape == (12,)
        assert batch.advantages.shape == (12,)
        assert batch.value_targets.shape == (12,)

    def test_episode_returns_recorded(self, nets):
        policy, value = nets
        collector = single_env_collector(CountingEnv(), policy, value, 0.9, 1.0, seed=0)
        batch = collector.collect(12)  # covers two full episodes (5+5) + 2
        assert batch.episode_returns == [-5.0, -5.0]
        assert collector.total_env_steps == 12

    def test_episodes_continue_across_batches(self, nets):
        policy, value = nets
        env = CountingEnv()
        collector = single_env_collector(env, policy, value, 0.9, 1.0, seed=0)
        collector.collect(3)
        batch = collector.collect(3)  # completes the first episode at step 5
        assert batch.episode_returns == [-5.0]
        assert env.resets == 2  # initial + after the first episode

    def test_dones_at_episode_boundaries(self, nets):
        policy, value = nets
        collector = single_env_collector(CountingEnv(), policy, value, 0.9, 1.0, seed=0)
        batch = collector.collect(10)
        assert np.array_equal(
            batch.dones,
            np.array([False] * 4 + [True] + [False] * 4 + [True]),
        )

    def test_truncation_bootstrap_changes_targets(self, rng):
        """With truncated=True the final-state value is folded in; a
        terminal env (truncated=False) must not bootstrap."""
        policy = GaussianPolicyNetwork(2, 1, (8,), rng=rng)
        value = ValueNetwork(2, (8,), rng=np.random.default_rng(0))
        # make the value function clearly non-zero
        for key in value.trunk.params:
            value.trunk.params[key] = value.trunk.params[key] + 0.3

        def targets(truncated_flag, seed=3):
            env = CountingEnv(truncated_flag=truncated_flag)
            collector = single_env_collector(env, policy, value, 0.9, 1.0, seed=seed)
            return collector.collect(5).value_targets

    # same policy seed -> same actions/rewards; only bootstrapping differs
        t_trunc = targets(True)
        t_term = targets(False)
        assert not np.allclose(t_trunc, t_term)
        # terminal: the λ=1 target of the last step is just the reward
        assert t_term[-1] == pytest.approx(-1.0)

    def test_invalid_batch_size(self, nets):
        policy, value = nets
        collector = single_env_collector(CountingEnv(), policy, value, 0.9, 1.0)
        with pytest.raises(ValueError):
            collector.collect(0)

    def test_minibatch_indices_cover_batch(self, nets, rng):
        policy, value = nets
        collector = single_env_collector(CountingEnv(), policy, value, 0.9, 1.0, seed=0)
        batch = collector.collect(10)
        blocks = batch.minibatch_indices(4, rng)
        assert sorted(np.concatenate(blocks).tolist()) == list(range(10))
        assert [len(b) for b in blocks] == [4, 4, 2]
