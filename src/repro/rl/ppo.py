"""Proximal policy optimization with adaptive KL penalty (RLlib semantics).

The training loss mirrors RLlib's PPO (the implementation the paper
uses, Table 2 hyperparameters):

    L = -E[min(ρ·A, clip(ρ, 1±ε)·A)]            (clipped surrogate)
        + β · E[KL(π_old ‖ π_new)]              (adaptive KL penalty)
        + c_v · E[min((V-R)², clip)]            (clamped value loss)
        - c_e · E[H(π_new)]                     (entropy bonus, 0 here)

with advantages standardized per batch, minibatch Adam for
``num_epochs`` passes, global-norm gradient clipping, and the classic
adaptive-β rule: β ×= 1.5 if KL > 2·target, β ×= 0.5 if KL < target/2.

Four optional *hardening knobs* (``PPOConfig``, all default off; off is
bit-identical to the paper's update, golden-pinned) wrap that loss for
long training campaigns: bounds on the adaptive β
(:func:`adapted_kl_coeff`), KL early stopping of the SGD epochs, a
linear clip-ε decay schedule (:func:`clip_param_at`) and a
pessimism-free value clamp (:func:`clamped_value_sq_error`).

All gradients are assembled analytically (distribution parameter
gradients chained through the manual MLP backward pass) — there is no
autodiff anywhere in this repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import PPOConfig
from repro.rl.distributions import DiagGaussian
from repro.rl.nn import GaussianPolicyNetwork, ValueNetwork
from repro.rl.optim import Adam, clip_grads_by_global_norm
from repro.rl.vector_rollout import VectorRolloutCollector
from repro.utils.rng import as_generator

__all__ = [
    "PPOTrainer",
    "TrainIterationStats",
    "adapted_kl_coeff",
    "clip_param_at",
    "clamped_value_sq_error",
]


def adapted_kl_coeff(kl_coeff: float, kl: float, config: PPOConfig) -> float:
    """RLlib's adaptive-β rule, optionally clamped to the config bounds.

    ``β ×= 1.5`` when the post-update KL overshoots twice the target,
    ``β ×= 0.5`` when it undershoots half of it; with
    ``config.kl_coeff_bounds = (lo, hi)`` the result is clamped into
    ``[lo, hi]`` so a long campaign cannot run the penalty to zero or
    infinity (property-tested in ``tests/test_ppo_hardening.py``).
    """
    if kl > 2.0 * config.kl_target:
        kl_coeff *= 1.5
    elif kl < 0.5 * config.kl_target:
        kl_coeff *= 0.5
    if config.kl_coeff_bounds is not None:
        lo, hi = config.kl_coeff_bounds
        kl_coeff = min(max(kl_coeff, lo), hi)
    return kl_coeff


def clip_param_at(config: PPOConfig, iteration: int) -> float:
    """Surrogate clip ``ε`` in effect at a (0-based) training iteration.

    Without a decay schedule this is ``config.clip_param`` exactly; with
    one, ``ε`` decays linearly to ``clip_param_final`` over
    ``clip_decay_iters`` iterations and stays there — monotone
    non-increasing in ``iteration`` (property-tested).
    """
    if config.clip_param_final is None:
        return config.clip_param
    frac = min(1.0, max(0.0, iteration / config.clip_decay_iters))
    # clip - frac*(clip-final), clamped below at final: every step is a
    # correctly-rounded monotone map of ``frac``, so the schedule is
    # exactly non-increasing (not just up to float noise) and lands
    # within one ulp of ``clip_param_final`` at the end of the decay.
    decayed = config.clip_param - frac * (
        config.clip_param - config.clip_param_final
    )
    return max(config.clip_param_final, decayed)


def clamped_value_sq_error(
    values: np.ndarray,
    values_old: np.ndarray,
    targets: np.ndarray,
    clamp: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Value-clipped squared error that never exceeds the unclipped one.

    The critic prediction is clipped to the ``±clamp`` band around its
    pre-update prediction and the elementwise *minimum* of the clamped
    and unclamped squared errors is taken — unlike the pessimistic
    ``max`` form, the clamp can limit an update but never widen the
    loss. Returns ``(sq_error, active)`` where ``active`` marks entries
    whose gradient flows through the live prediction (the clamped
    branch, when strictly smaller, has zero gradient: it only wins when
    the prediction already left the band).
    """
    sq_unclamped = (values - targets) ** 2
    delta = values - values_old
    # In-band predictions keep their exact value (``old + (v - old)``
    # would round); only out-of-band ones are pulled to the band edge.
    clipped = np.where(
        np.abs(delta) <= clamp,
        values,
        values_old + np.clip(delta, -clamp, clamp),
    )
    sq_clamped = (clipped - targets) ** 2
    active = sq_unclamped <= sq_clamped
    return np.minimum(sq_unclamped, sq_clamped), active


@dataclass
class TrainIterationStats:
    """Diagnostics of one PPO training iteration."""

    iteration: int
    env_steps: int
    mean_episode_return: float
    policy_loss: float
    value_loss: float
    kl: float
    kl_coeff: float
    entropy: float
    clip_fraction: float
    grad_norm: float
    explained_variance: float
    episode_returns: list[float] = field(default_factory=list)
    # SGD epochs actually performed (< num_epochs when KL early stopping
    # triggered) and the clip-ε in effect this iteration.
    epochs_run: int = 0
    clip_param: float = 0.0


def _explained_variance(targets: np.ndarray, predictions: np.ndarray) -> float:
    var_t = float(np.var(targets))
    if var_t < 1e-12:
        return 0.0
    return float(1.0 - np.var(targets - predictions) / var_t)


class PPOTrainer:
    """PPO on a gym-like env with flat Box observations/actions.

    Parameters
    ----------
    env:
        Environment exposing ``reset(seed) -> obs``,
        ``step_raw(action) -> (obs, reward, done, info)``,
        ``observation_size`` and ``action_size``.
    config:
        :class:`repro.config.PPOConfig` (Table 2 defaults).
    num_envs:
        Collect experience from this many environments in lock-step via
        :class:`repro.rl.vector_rollout.VectorRolloutCollector` (one
        policy/value forward per time slice instead of per step; a
        single environment is the ``num_envs = 1`` case). The extra
        environments come from ``env_factory`` if given, else from
        ``env.clone()``. ``train_batch_size`` must be divisible by
        ``num_envs``.
    independent_streams:
        With ``num_envs > 1``, give every environment its own spawned
        generator and per-environment network forwards so the collected
        batch is invariant to how a fleet is chunked across collectors
        (see :class:`repro.rl.vector_rollout.VectorRolloutCollector`).
        The training campaign uses this; the default (``False``) keeps
        the faster shared-stream collection and its historical streams.
    """

    def __init__(
        self,
        env,
        config: PPOConfig | None = None,
        seed: int | np.random.Generator | None = None,
        num_envs: int = 1,
        env_factory=None,
        independent_streams: bool = False,
    ) -> None:
        self.config = config if config is not None else PPOConfig()
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        if self.config.train_batch_size % num_envs != 0:
            raise ValueError(
                f"train_batch_size {self.config.train_batch_size} must be "
                f"divisible by num_envs {num_envs}"
            )
        root = as_generator(seed if seed is not None else self.config.seed)
        init_rng, rollout_rng, self._shuffle_rng = (
            as_generator(int(root.integers(2**63))) for _ in range(3)
        )
        obs_dim = int(env.observation_size)
        act_dim = int(env.action_size)
        self.policy = GaussianPolicyNetwork(
            obs_dim,
            act_dim,
            hidden_sizes=self.config.hidden_sizes,
            initial_log_std=self.config.initial_log_std,
            rng=init_rng,
        )
        self.value = ValueNetwork(
            obs_dim, hidden_sizes=self.config.hidden_sizes, rng=init_rng
        )
        if num_envs > 1 and env_factory is None:
            if not hasattr(env, "clone"):
                raise ValueError(
                    "num_envs > 1 needs env.clone() or an env_factory"
                )
            env_factory = env.clone
        envs = [env] + [env_factory() for _ in range(num_envs - 1)]
        self.collector = VectorRolloutCollector(
            envs,
            self.policy,
            self.value,
            gamma=self.config.gamma,
            gae_lambda=self.config.gae_lambda,
            seed=rollout_rng,
            independent_streams=independent_streams,
        )
        self.kl_coeff = self.config.kl_coeff
        self._policy_opt = Adam.for_params(
            self.policy.params, self.config.learning_rate
        )
        self._value_opt = Adam.for_params(
            self.value.params, self.config.learning_rate
        )
        self.iteration = 0
        self._return_history: list[float] = []

    # ------------------------------------------------------------------
    # Loss gradients
    # ------------------------------------------------------------------
    def _policy_minibatch_step(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        logp_old: np.ndarray,
        advantages: np.ndarray,
        mu_old: np.ndarray,
        log_std_old: np.ndarray,
    ) -> tuple[float, float, float, float, float]:
        """One Adam step on the policy; returns loss diagnostics."""
        cfg = self.config
        eps = clip_param_at(cfg, self.iteration)
        n = obs.shape[0]
        mu, log_std, cache = self.policy.forward(obs)
        logp = DiagGaussian.log_prob(actions, mu, log_std)
        ratio = np.exp(logp - logp_old)
        clipped_ratio = np.clip(ratio, 1.0 - eps, 1.0 + eps)
        unclipped = ratio * advantages
        clipped = clipped_ratio * advantages
        surrogate = np.minimum(unclipped, clipped)
        policy_loss = -float(surrogate.mean())

        kl = DiagGaussian.kl(mu_old, log_std_old, mu, log_std)
        kl_mean = float(kl.mean())
        entropy = DiagGaussian.entropy(log_std)
        entropy_mean = float(entropy.mean())
        clip_fraction = float((np.abs(ratio - 1.0) > eps).mean())

        # --- gradient wrt log-prob of the surrogate term ---------------
        # d surrogate / d logp = ratio * A where the unclipped branch is
        # active, else 0; loss is the negative mean.
        active = unclipped <= clipped
        g_logp = np.where(active, ratio * advantages, 0.0) / n  # d(mean surr)
        d_mu_logp, d_ls_logp = DiagGaussian.log_prob_grads(actions, mu, log_std)
        grad_mu = -g_logp[:, None] * d_mu_logp
        grad_ls = -g_logp[:, None] * d_ls_logp

        # --- KL penalty -------------------------------------------------
        d_mu_kl, d_ls_kl = DiagGaussian.kl_grads_new(
            mu_old, log_std_old, mu, log_std
        )
        grad_mu += self.kl_coeff * d_mu_kl / n
        grad_ls += self.kl_coeff * d_ls_kl / n

        # --- entropy bonus ----------------------------------------------
        if cfg.entropy_coeff > 0.0:
            grad_ls -= (
                cfg.entropy_coeff
                * DiagGaussian.entropy_grad_log_std(log_std)
                / n
            )

        grads = self.policy.backward(cache, grad_mu, grad_ls)
        grads, grad_norm = clip_grads_by_global_norm(grads, cfg.grad_clip)
        self.policy.apply_update(self._policy_opt.step(grads))
        return policy_loss, kl_mean, entropy_mean, clip_fraction, grad_norm

    def _value_minibatch_step(
        self,
        obs: np.ndarray,
        targets: np.ndarray,
        values_old: np.ndarray | None = None,
    ) -> float:
        cfg = self.config
        n = obs.shape[0]
        values, cache = self.value.forward(obs)
        if cfg.value_clamp_param is not None and values_old is not None:
            sq_err, in_band = clamped_value_sq_error(
                values, values_old, targets, cfg.value_clamp_param
            )
        else:
            sq_err = (values - targets) ** 2
            in_band = True
        clamped = np.minimum(sq_err, cfg.value_clip_param)
        value_loss = float(clamped.mean())
        # Gradient is zero where the squared error is clamped (by the
        # absolute clip or by the value-clamp band).
        active = (sq_err < cfg.value_clip_param) & in_band
        grad_v = cfg.value_loss_coeff * 2.0 * (values - targets) * active / n
        grads = self.value.backward(cache, grad_v)
        grads, _ = clip_grads_by_global_norm(grads, cfg.grad_clip)
        self.value.apply_update(self._value_opt.step(grads))
        return value_loss

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def train_iteration(self, update_policy: bool = True) -> TrainIterationStats:
        """One PPO iteration. ``update_policy=False`` runs a critic-only
        iteration (used to warm up the value function after a behavior-
        cloning initialization, so early advantage estimates don't knock
        the policy off its warm start)."""
        cfg = self.config
        batch = self.collector.collect(cfg.train_batch_size)
        self._return_history.extend(batch.episode_returns)

        advantages = batch.advantages
        std = advantages.std()
        advantages = (advantages - advantages.mean()) / (std + 1e-8)

        # Snapshot the old distribution for ratios and KL.
        mu_old_all, log_std_old_all, _ = self.policy.forward(batch.obs)
        logp_old_all = DiagGaussian.log_prob(
            batch.actions, mu_old_all, log_std_old_all
        )

        policy_losses: list[float] = []
        value_losses: list[float] = []
        kls: list[float] = []
        entropies: list[float] = []
        clip_fracs: list[float] = []
        grad_norms: list[float] = []

        epochs_run = 0
        for _epoch in range(cfg.num_epochs):
            epochs_run += 1
            for idx in batch.minibatch_indices(cfg.minibatch_size, self._shuffle_rng):
                if update_policy:
                    p_loss, kl, ent, clip_frac, g_norm = (
                        self._policy_minibatch_step(
                            batch.obs[idx],
                            batch.actions[idx],
                            logp_old_all[idx],
                            advantages[idx],
                            mu_old_all[idx],
                            log_std_old_all[idx],
                        )
                    )
                    policy_losses.append(p_loss)
                    kls.append(kl)
                    entropies.append(ent)
                    clip_fracs.append(clip_frac)
                    grad_norms.append(g_norm)
                v_loss = self._value_minibatch_step(
                    batch.obs[idx],
                    batch.value_targets[idx],
                    values_old=batch.values[idx],
                )
                value_losses.append(v_loss)
            if (
                update_policy
                and cfg.kl_early_stop_factor is not None
                and _epoch + 1 < cfg.num_epochs
            ):
                # KL early stopping: once the full-batch divergence has
                # left the trust region, further epochs on the same batch
                # only push it further out (torchrl's ESS-style guard).
                mu_e, log_std_e, _ = self.policy.forward(batch.obs)
                epoch_kl = float(
                    DiagGaussian.kl(
                        mu_old_all, log_std_old_all, mu_e, log_std_e
                    ).mean()
                )
                if epoch_kl > cfg.kl_early_stop_factor * cfg.kl_target:
                    break

        # Adaptive KL coefficient (RLlib's update_kl rule) based on the
        # post-update divergence over the full batch.
        mu_new, log_std_new, _ = self.policy.forward(batch.obs)
        final_kl = float(
            DiagGaussian.kl(mu_old_all, log_std_old_all, mu_new, log_std_new).mean()
        )
        self.kl_coeff = adapted_kl_coeff(self.kl_coeff, final_kl, cfg)

        values_pred = self.value(batch.obs)
        self.iteration += 1
        recent = self._return_history[-20:]

        def _mean(xs: list[float]) -> float:
            return float(np.mean(xs)) if xs else 0.0

        stats = TrainIterationStats(
            iteration=self.iteration,
            env_steps=self.collector.total_env_steps,
            mean_episode_return=float(np.mean(recent)) if recent else float("nan"),
            policy_loss=_mean(policy_losses),
            value_loss=_mean(value_losses),
            kl=final_kl,
            kl_coeff=self.kl_coeff,
            entropy=_mean(entropies),
            clip_fraction=_mean(clip_fracs),
            grad_norm=_mean(grad_norms),
            explained_variance=_explained_variance(
                batch.value_targets, values_pred
            ),
            episode_returns=list(batch.episode_returns),
            epochs_run=epochs_run,
            clip_param=clip_param_at(cfg, self.iteration - 1),
        )
        return stats

    def train(self, num_iterations: int, callback=None) -> list[TrainIterationStats]:
        """Run ``num_iterations`` PPO iterations; optional per-iteration
        ``callback(stats)``."""
        history = []
        for _ in range(num_iterations):
            stats = self.train_iteration()
            history.append(stats)
            if callback is not None:
                callback(stats)
        return history

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        out = {f"policy/{k}": v for k, v in self.policy.state_dict().items()}
        out.update({f"value/{k}": v for k, v in self.value.state_dict().items()})
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        policy_state = {
            k[len("policy/") :]: v for k, v in state.items() if k.startswith("policy/")
        }
        value_state = {
            k[len("value/") :]: v for k, v in state.items() if k.startswith("value/")
        }
        self.policy.load_state_dict(policy_state)
        self.value.load_state_dict(value_state)
