"""Tests for the Dirichlet-head PPO trainer (paper's ablation head)."""

import numpy as np
import pytest

from repro.config import PPOConfig, SystemConfig
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.rl.ppo_dirichlet import DirichletPPOTrainer


class SimplexTargetEnv:
    """Reward = −‖a − target‖² where target is a fixed simplex point per
    block; optimal Dirichlet policy concentrates there."""

    observation_size = 2
    action_size = 4  # 2 blocks of size 2

    def __init__(self, seed=0, episode_len=10):
        self.rng = np.random.default_rng(seed)
        self.episode_len = episode_len
        self.t = 0
        self.target = np.array([0.8, 0.2, 0.3, 0.7])

    def reset(self, seed=None):
        self.t = 0
        return self.rng.random(2)

    def step_raw(self, action):
        reward = -float(np.sum((action - self.target) ** 2))
        self.t += 1
        done = self.t >= self.episode_len
        return self.rng.random(2), reward, done, {"truncated": done}


@pytest.fixture
def trainer():
    cfg = PPOConfig(
        learning_rate=5e-3,
        train_batch_size=300,
        minibatch_size=100,
        num_epochs=5,
        hidden_sizes=(16, 16),
        value_clip_param=100.0,
    )
    return DirichletPPOTrainer(SimplexTargetEnv(), block_size=2, config=cfg, seed=0)


class TestDirichletPPO:
    def test_block_size_must_divide_action_size(self):
        with pytest.raises(ValueError):
            DirichletPPOTrainer(SimplexTargetEnv(), block_size=3)

    def test_actions_are_simplex_valued(self, trainer):
        obs, actions, *_ = trainer._collect(50)
        blocks = actions.reshape(50, 2, 2)
        assert np.allclose(blocks.sum(axis=-1), 1.0)
        assert np.all(blocks > 0)

    def test_improves_on_simplex_target(self, trainer):
        first = trainer.train_iteration().mean_episode_return
        for _ in range(12):
            last = trainer.train_iteration().mean_episode_return
        assert last > first + 0.2

    def test_stats_populated(self, trainer):
        stats = trainer.train_iteration()
        assert stats.env_steps == 300
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.kl) and stats.kl >= -1e-9
        assert np.isfinite(stats.entropy)

    def test_runs_on_mfc_env(self):
        cfg = SystemConfig(delta_t=5.0)
        env = MeanFieldEnv(cfg, horizon=20, propagator="tabulated", seed=0)
        ppo = PPOConfig(
            learning_rate=1e-3,
            train_batch_size=80,
            minibatch_size=40,
            num_epochs=2,
            hidden_sizes=(16,),
            value_clip_param=1000.0,
        )
        trainer = DirichletPPOTrainer(env, block_size=cfg.d, config=ppo, seed=0)
        stats = trainer.train_iteration()
        assert np.isfinite(stats.mean_episode_return)
        policy = trainer.mean_rule_policy(cfg.num_queue_states, cfg.d)
        rule = policy.decision_rule(np.full(6, 1 / 6), 0)
        assert np.allclose(rule.probs.sum(axis=-1), 1.0)
        assert policy.name == "MF-Dirichlet"

    def test_mean_rule_policy_evaluates_a_float64_copy(self):
        """Training is float32; the deterministic policy evaluates a
        float64 copy of the network as it was when the policy was made."""
        cfg = SystemConfig(delta_t=5.0)
        env = MeanFieldEnv(cfg, horizon=20, propagator="tabulated", seed=0)
        ppo = PPOConfig(
            learning_rate=1e-2,
            train_batch_size=40,
            minibatch_size=20,
            num_epochs=1,
            hidden_sizes=(16,),
            value_clip_param=1000.0,
        )
        trainer = DirichletPPOTrainer(env, block_size=cfg.d, config=ppo, seed=0)
        assert trainer.policy.dtype == np.float32
        policy = trainer.mean_rule_policy(cfg.num_queue_states, cfg.d)
        nu = np.full(6, 1 / 6)
        logits = trainer.policy.astype(np.float64)(np.r_[nu, 1.0, 0.0][None, :])
        expected = trainer.head.mean_action(logits)[0].reshape(-1, cfg.d)
        rule = policy.decision_rule(nu, 0)
        assert np.array_equal(rule.probs.reshape(-1, cfg.d), expected)
        trainer.train_iteration()
        assert np.array_equal(policy.decision_rule(nu, 0).probs, rule.probs)

    def test_seed_reproducibility(self):
        cfg = PPOConfig(
            learning_rate=1e-3, train_batch_size=60, minibatch_size=30,
            num_epochs=2, hidden_sizes=(8,),
        )
        runs = []
        for _ in range(2):
            t = DirichletPPOTrainer(
                SimplexTargetEnv(seed=0), block_size=2, config=cfg, seed=4
            )
            runs.append(t.train_iteration().mean_episode_return)
        assert runs[0] == runs[1]
