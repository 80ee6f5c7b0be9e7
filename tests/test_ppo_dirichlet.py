"""Tests for PPO with the Dirichlet action head (paper's ablation head),
trained by ``PPOTrainer(..., action_head=DirichletBlocks(...))``."""

import numpy as np
import pytest

from repro.config import PPOConfig, SystemConfig
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.learned import DirichletMeanPolicy
from repro.rl.distributions import DirichletBlocks
from repro.rl.ppo import PPOTrainer


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


def dirichlet_trainer(env, block_size, config=None, seed=None, **kwargs):
    """A PPO trainer whose head tiles ``env.action_size`` with blocks of
    ``block_size`` (a trailing remainder makes the head too small)."""
    head = DirichletBlocks(env.action_size // block_size, block_size)
    return PPOTrainer(env, config, seed=seed, action_head=head, **kwargs)


_CFG = PPOConfig(
    learning_rate=5e-3,
    train_batch_size=300,
    minibatch_size=100,
    num_epochs=5,
    hidden_sizes=(16, 16),
    value_clip_param=100.0,
)


@pytest.fixture
def trainer():
    return dirichlet_trainer(SimplexTargetEnv(), block_size=2, config=_CFG, seed=0)


class TestDirichletPPO:
    def test_block_size_must_divide_action_size(self):
        with pytest.raises(ValueError):
            dirichlet_trainer(SimplexTargetEnv(), block_size=3)

    def test_actions_are_simplex_valued(self, trainer):
        actions = trainer.collector.collect(50).actions
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
        env = MeanFieldEnv(cfg, horizon=20, seed=0)
        ppo = PPOConfig(
            learning_rate=1e-3,
            train_batch_size=80,
            minibatch_size=40,
            num_epochs=2,
            hidden_sizes=(16,),
            value_clip_param=1000.0,
        )
        trainer = dirichlet_trainer(env, block_size=cfg.d, config=ppo, seed=0)
        stats = trainer.train_iteration()
        assert np.isfinite(stats.mean_episode_return)
        policy = DirichletMeanPolicy(trainer.policy, cfg.num_queue_states, cfg.d)
        rule = policy.decision_rule(np.full(6, 1 / 6), 0)
        assert np.allclose(rule.probs.sum(axis=-1), 1.0)
        assert policy.name == "MF-Dirichlet"

    def test_mean_rule_policy_evaluates_a_float64_copy(self):
        """Training is float32; the deterministic policy evaluates a
        float64 copy of the network as it was when the policy was made."""
        cfg = SystemConfig(delta_t=5.0)
        env = MeanFieldEnv(cfg, horizon=20, seed=0)
        ppo = PPOConfig(
            learning_rate=1e-2,
            train_batch_size=40,
            minibatch_size=20,
            num_epochs=1,
            hidden_sizes=(16,),
            value_clip_param=1000.0,
        )
        trainer = dirichlet_trainer(env, block_size=cfg.d, config=ppo, seed=0)
        assert trainer.policy.dtype == np.float32
        policy = DirichletMeanPolicy(trainer.policy, cfg.num_queue_states, cfg.d)
        nu = np.full(6, 1 / 6)
        logits = trainer.policy.astype(np.float64)(np.r_[nu, 1.0, 0.0][None, :])
        head = trainer.policy.distribution
        expected = head.mean_action(logits)[0].reshape(-1, cfg.d)
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
            t = dirichlet_trainer(
                SimplexTargetEnv(seed=0), block_size=2, config=cfg, seed=4
            )
            runs.append(t.train_iteration().mean_episode_return)
        assert runs[0] == runs[1]

    def test_head_size_must_match_action_size(self):
        """Blocks that divide the action size but cover more of it."""
        with pytest.raises(ValueError, match="action_size"):
            PPOTrainer(SimplexTargetEnv(), action_head=DirichletBlocks(3, 2))

    def test_entropy_bonus_is_rejected(self):
        with pytest.raises(ValueError, match="entropy"):
            dirichlet_trainer(
                SimplexTargetEnv(),
                block_size=2,
                config=_CFG.with_updates(entropy_coeff=0.01),
            )

    def test_kl_coeff_stays_inside_bounds(self):
        """The adaptive β of the Dirichlet head honours ``kl_coeff_bounds``;
        the bounds bind, so an unclamped β would have left them."""
        lo, hi = 0.15, 0.25
        trainer = dirichlet_trainer(
            SimplexTargetEnv(),
            block_size=2,
            config=_CFG.with_updates(kl_coeff_bounds=(lo, hi)),
            seed=0,
        )
        betas = [trainer.train_iteration().kl_coeff for _ in range(4)]
        assert all(lo <= beta <= hi for beta in betas)
        assert any(beta in (lo, hi) for beta in betas)
