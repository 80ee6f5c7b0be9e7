"""PPO with a Dirichlet action head — the paper's negative ablation.

Section 4: "we have tried Dirichlet-parameterized upper-level policies
to directly output simplex-valued actions in order to eliminate the need
for manual normalization, [but] performance was significantly worse,
hence motivating our approach [Gaussian + normalization]".

This trainer reproduces that comparison: the network emits concentration
logits for ``S^d`` independent Dirichlet(d) blocks (one per sampled
state combination); sampled actions are already valid decision-rule
tables. Everything else — GAE, clipped surrogate with adaptive KL
penalty, clamped value loss, minibatch Adam, float32 training with
float64 collection — matches :class:`repro.rl.ppo.PPOTrainer` so the
two heads differ only in their action distribution.
"""

from __future__ import annotations

import numpy as np

from repro.config import PPOConfig
from repro.rl.distributions import DirichletBlocks
from repro.rl.gae import compute_gae
from repro.rl.nn import MLP, ValueNetwork
from repro.rl.optim import Adam, clip_grads_by_global_norm
from repro.rl.ppo import TRAINING_DTYPE, TrainIterationStats, _explained_variance
from repro.utils.rng import as_generator

__all__ = ["DirichletPPOTrainer"]


class DirichletPPOTrainer:
    """PPO whose policy outputs per-block Dirichlet concentrations.

    The environment must expose ``observation_size``, ``action_size``
    (interpreted as ``num_blocks * block_size``), ``reset`` and
    ``step_raw``; ``block_size`` is the number of routing choices ``d``.
    """

    def __init__(
        self,
        env,
        block_size: int,
        config: PPOConfig | None = None,
        seed=None,
    ) -> None:
        self.config = config if config is not None else PPOConfig()
        self.env = env
        root = as_generator(seed if seed is not None else self.config.seed)
        init_rng = as_generator(int(root.integers(2**63)))
        self._rng = as_generator(int(root.integers(2**63)))
        self._shuffle_rng = as_generator(int(root.integers(2**63)))

        obs_dim = int(env.observation_size)
        act_dim = int(env.action_size)
        if act_dim % block_size != 0:
            raise ValueError(
                f"action_size {act_dim} not divisible by block_size {block_size}"
            )
        self.head = DirichletBlocks(act_dim // block_size, block_size)
        self.policy = MLP(
            obs_dim, self.config.hidden_sizes, act_dim, rng=init_rng, out_std=0.01
        ).astype(TRAINING_DTYPE)
        self.value = ValueNetwork(
            obs_dim, hidden_sizes=self.config.hidden_sizes, rng=init_rng
        ).astype(TRAINING_DTYPE)
        self.kl_coeff = float(self.config.kl_coeff)
        self._policy_opt = Adam(self.policy.buffer, self.config.learning_rate)
        self._value_opt = Adam(self.value.buffer, self.config.learning_rate)
        self.iteration = 0
        self.total_env_steps = 0
        self._obs: np.ndarray | None = None
        self._episode_return = 0.0
        self._return_history: list[float] = []

    # ------------------------------------------------------------------
    def _collect(self, batch_size: int):
        if self._obs is None:
            self._obs = self.env.reset(self._rng)
            self._episode_return = 0.0
        obs_buf = np.empty((batch_size, self.policy.in_dim))
        act_buf = np.empty((batch_size, self.policy.out_dim))
        logp_buf = np.empty(batch_size)
        rew_buf = np.empty(batch_size)
        gae_rew = np.empty(batch_size)
        done_buf = np.zeros(batch_size, dtype=bool)
        val_buf = np.empty(batch_size)
        episode_returns: list[float] = []
        for t in range(batch_size):
            obs = np.asarray(self._obs, dtype=np.float64)
            logits = self.policy(obs[None, :])
            action = self.head.sample(logits, self._rng)
            logp = self.head.log_prob(action, logits)
            next_obs, reward, done, info = self.env.step_raw(action[0])
            obs_buf[t] = obs
            act_buf[t] = action[0]
            logp_buf[t] = logp[0]
            rew_buf[t] = reward
            gae_rew[t] = reward
            done_buf[t] = done
            val_buf[t] = self.value(obs[None, :])[0]
            self._episode_return += reward
            self.total_env_steps += 1
            if done:
                if info.get("truncated", True):
                    gae_rew[t] += self.config.gamma * float(
                        self.value(np.asarray(next_obs)[None, :])[0]
                    )
                episode_returns.append(self._episode_return)
                self._episode_return = 0.0
                self._obs = self.env.reset(self._rng)
            else:
                self._obs = next_obs
        bootstrap = (
            0.0
            if done_buf[-1]
            else float(self.value(np.asarray(self._obs)[None, :])[0])
        )
        adv, targets = compute_gae(
            gae_rew, val_buf, done_buf, bootstrap,
            self.config.gamma, self.config.gae_lambda,
        )
        return obs_buf, act_buf, logp_buf, adv, targets, episode_returns

    # ------------------------------------------------------------------
    def _policy_step(self, obs, actions, logp_old, advantages, logits_old):
        cfg = self.config
        n = obs.shape[0]
        logits, cache = self.policy.forward(obs)
        logp = self.head.log_prob(actions, logits)
        ratio = np.exp(np.clip(logp - logp_old, -30, 30))
        clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_param, 1.0 + cfg.clip_param)
        unclipped = ratio * advantages
        clipped = clipped_ratio * advantages
        policy_loss = -float(np.minimum(unclipped, clipped).mean())
        kl = self.head.kl(logits_old, logits)
        kl_mean = float(kl.mean())
        clip_fraction = float((np.abs(ratio - 1.0) > cfg.clip_param).mean())

        active = unclipped <= clipped
        g_logp = np.where(active, ratio * advantages, 0.0) / n
        grad_logits = -g_logp[:, None] * self.head.log_prob_grad_logits(
            actions, logits
        )
        grad_logits += self.kl_coeff * self.head.kl_grad_logits_new(
            logits_old, logits
        ) / n
        grad = self.policy.backward(cache, grad_logits)
        grad_norm = clip_grads_by_global_norm(grad, cfg.grad_clip)
        self._policy_opt.step(grad)
        entropy = float(self.head.entropy(logits).mean())
        return policy_loss, kl_mean, entropy, clip_fraction, grad_norm

    def _value_step(self, obs, targets):
        cfg = self.config
        n = obs.shape[0]
        values, cache = self.value.forward(obs)
        sq_err = (values - targets) ** 2
        value_loss = float(np.minimum(sq_err, cfg.value_clip_param).mean())
        active = sq_err < cfg.value_clip_param
        grad_v = cfg.value_loss_coeff * 2.0 * (values - targets) * active / n
        grad = self.value.backward(cache, grad_v)
        clip_grads_by_global_norm(grad, cfg.grad_clip)
        self._value_opt.step(grad)
        return value_loss

    # ------------------------------------------------------------------
    def train_iteration(self) -> TrainIterationStats:
        cfg = self.config
        obs, actions, logp_old, adv, targets, ep_returns = self._collect(
            cfg.train_batch_size
        )
        self._return_history.extend(ep_returns)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        obs, actions, logp_old, adv, targets_sgd = (
            a.astype(TRAINING_DTYPE) for a in (obs, actions, logp_old, adv, targets)
        )
        logits_old = self.policy(obs)

        p_losses, v_losses, kls, ents, clips, norms = [], [], [], [], [], []
        n = obs.shape[0]
        for _ in range(cfg.num_epochs):
            perm = self._shuffle_rng.permutation(n)
            for start in range(0, n, cfg.minibatch_size):
                idx = perm[start : start + cfg.minibatch_size]
                p, k, e, c, g = self._policy_step(
                    obs[idx], actions[idx], logp_old[idx], adv[idx],
                    logits_old[idx],
                )
                v = self._value_step(obs[idx], targets_sgd[idx])
                p_losses.append(p)
                v_losses.append(v)
                kls.append(k)
                ents.append(e)
                clips.append(c)
                norms.append(g)

        final_kl = float(self.head.kl(logits_old, self.policy(obs)).mean())
        if final_kl > 2.0 * cfg.kl_target:
            self.kl_coeff *= 1.5
        elif final_kl < 0.5 * cfg.kl_target:
            self.kl_coeff *= 0.5

        self.iteration += 1
        recent = self._return_history[-20:]
        return TrainIterationStats(
            iteration=self.iteration,
            env_steps=self.total_env_steps,
            mean_episode_return=float(np.mean(recent)) if recent else float("nan"),
            policy_loss=float(np.mean(p_losses)),
            value_loss=float(np.mean(v_losses)),
            kl=final_kl,
            kl_coeff=self.kl_coeff,
            entropy=float(np.mean(ents)),
            clip_fraction=float(np.mean(clips)),
            grad_norm=float(np.mean(norms)),
            explained_variance=_explained_variance(targets, self.value(obs)),
            episode_returns=list(ep_returns),
        )

    def train(self, num_iterations: int, callback=None) -> list[TrainIterationStats]:
        history = []
        for _ in range(num_iterations):
            stats = self.train_iteration()
            history.append(stats)
            if callback is not None:
                callback(stats)
        return history

    def mean_rule_policy(self, num_states: int, d: int, num_modes: int = 2):
        """Deterministic policy from the per-block Dirichlet means of a
        float64 copy of the current network (evaluation is float64)."""
        from repro.meanfield.decision_rule import DecisionRule
        from repro.policies.base import UpperLevelPolicy

        network = self.policy.astype(np.float64)
        head = self.head

        class _DirichletMeanPolicy(UpperLevelPolicy):
            @property
            def name(self) -> str:
                return "MF-Dirichlet"

            def decision_rule(self, nu, lam_mode, rng=None):
                one_hot = np.zeros(num_modes)
                one_hot[lam_mode] = 1.0
                obs = np.concatenate([np.asarray(nu), one_hot])
                logits = network(obs[None, :])
                mean = head.mean_action(logits)[0]
                return DecisionRule.from_flat(
                    mean, num_states, d
                )

        return _DirichletMeanPolicy()
