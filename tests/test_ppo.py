"""PPO trainer tests: learning on known tasks, invariants, checkpointing."""

import numpy as np
import pytest

from repro.config import PPOConfig
from repro.rl.ppo import PPOTrainer


class TargetEnv:
    """Reward = −‖a − g(obs)‖²; optimum is a deterministic function of obs."""

    observation_size = 3
    action_size = 2

    def __init__(self, seed=0, episode_len=20):
        self.rng = np.random.default_rng(seed)
        self.episode_len = episode_len
        self.t = 0
        self.obs = None

    def reset(self, seed=None):
        self.t = 0
        self.obs = self.rng.random(3)
        return self.obs

    def step_raw(self, action):
        target = np.array([self.obs[0], 1.0 - self.obs[1]])
        reward = -float(np.sum((action - target) ** 2))
        self.t += 1
        done = self.t >= self.episode_len
        self.obs = self.rng.random(3)
        return self.obs, reward, done, {"truncated": done}


@pytest.fixture
def toy_trainer():
    cfg = PPOConfig(
        learning_rate=3e-3,
        train_batch_size=400,
        minibatch_size=100,
        num_epochs=5,
        hidden_sizes=(16, 16),
        initial_log_std=-0.5,
        value_clip_param=100.0,
    )
    return PPOTrainer(TargetEnv(), cfg, seed=0)


class TestLearning:
    def test_improves_on_target_task(self, toy_trainer):
        first = toy_trainer.train_iteration().mean_episode_return
        for _ in range(12):
            last = toy_trainer.train_iteration().mean_episode_return
        assert last > first + 2.0

    def test_critic_only_iteration_keeps_policy_fixed(self, toy_trainer):
        mu_before = {
            k: v.copy() for k, v in toy_trainer.policy.trunk.params.items()
        }
        log_std_before = toy_trainer.policy.log_std.copy()
        value_before = {
            k: v.copy() for k, v in toy_trainer.value.trunk.params.items()
        }
        stats = toy_trainer.train_iteration(update_policy=False)
        for key, old in mu_before.items():
            assert np.array_equal(toy_trainer.policy.trunk.params[key], old)
        assert np.array_equal(toy_trainer.policy.log_std, log_std_before)
        changed = any(
            not np.array_equal(toy_trainer.value.trunk.params[k], v)
            for k, v in value_before.items()
        )
        assert changed
        assert stats.policy_loss == 0.0
        assert stats.kl == 0.0

    def test_critic_only_iterations_keep_kl_coeff(self, toy_trainer):
        """With the policy frozen its KL is zero by definition; adapting
        the coefficient to that zero would shrink it before the first
        policy update."""
        for _ in range(3):
            stats = toy_trainer.train_iteration(update_policy=False)
            assert stats.kl == 0.0
            assert stats.kl_coeff == toy_trainer.config.kl_coeff
        assert toy_trainer.kl_coeff == toy_trainer.config.kl_coeff

    def test_value_function_learns(self, toy_trainer):
        stats = [toy_trainer.train_iteration() for _ in range(10)]
        assert stats[-1].explained_variance > stats[0].explained_variance
        assert stats[-1].value_loss < stats[0].value_loss


class TestInvariants:
    def test_stats_fields_populated(self, toy_trainer):
        stats = toy_trainer.train_iteration()
        assert stats.iteration == 1
        assert stats.env_steps == 400
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.kl >= 0
        assert 0.0 <= stats.clip_fraction <= 1.0
        assert stats.grad_norm >= 0

    def test_kl_stays_bounded(self, toy_trainer):
        """The clip + KL penalty keep per-iteration KL from exploding."""
        for _ in range(8):
            stats = toy_trainer.train_iteration()
            assert stats.kl < 1.0

    def test_adaptive_kl_coefficient_moves(self):
        cfg = PPOConfig(
            learning_rate=1e-2,  # aggressive on purpose
            train_batch_size=200,
            minibatch_size=50,
            num_epochs=10,
            hidden_sizes=(16,),
            kl_target=1e-4,  # unattainably small -> coeff must grow
            value_clip_param=100.0,
        )
        trainer = PPOTrainer(TargetEnv(), cfg, seed=0)
        initial = trainer.kl_coeff
        for _ in range(4):
            trainer.train_iteration()
        assert trainer.kl_coeff > initial

    def test_seed_reproducibility(self):
        cfg = PPOConfig(
            learning_rate=1e-3,
            train_batch_size=100,
            minibatch_size=50,
            num_epochs=2,
            hidden_sizes=(8,),
        )
        runs = []
        for _ in range(2):
            trainer = PPOTrainer(TargetEnv(seed=0), cfg, seed=7)
            stats = [trainer.train_iteration().mean_episode_return for _ in range(2)]
            runs.append(stats)
        assert runs[0] == runs[1]


class TestCheckpointing:
    def test_state_dict_roundtrip(self, toy_trainer, rng):
        toy_trainer.train_iteration()
        state = toy_trainer.state_dict()
        cfg = toy_trainer.config
        fresh = PPOTrainer(TargetEnv(), cfg, seed=99)
        fresh.load_state_dict(state)
        obs = rng.random((4, 3))
        mu_a, ls_a, _ = toy_trainer.policy.forward(obs)
        mu_b, ls_b, _ = fresh.policy.forward(obs)
        assert np.allclose(mu_a, mu_b)
        assert np.allclose(ls_a, ls_b)
        assert np.allclose(toy_trainer.value(obs), fresh.value(obs))
