"""Vectorized experience collection from ``E`` MFC environments.

:class:`VectorRolloutCollector` steps ``E`` independent gym-like
environments in lock-step: per collected time slice there is exactly one
policy forward pass and one value forward pass over the stacked
``(E, obs_dim)`` observations — ``E×`` fewer Python-level network calls
than stepping the same environments one at a time. The environments
advance through :func:`step_lockstep`, once per slice: mean-field
environments move all ``E`` laws with one Eq. 22 call and one
propagator call (:meth:`repro.meanfield.mfc_env.MeanFieldEnv.step_raw_batch`);
other environments step one by one. A single environment is the
``E = 1`` case. Actions are drawn from the policy network's own
``distribution`` (the Gaussian head or the Dirichlet ablation head of
:mod:`repro.rl.nn`), so one collector serves both.

Episodes keep running across batch boundaries, time-limit ends
(``info["truncated"]``) are bootstrapped with the value of the final
state, and completed-episode undiscounted returns are recorded for the
Figure 3 training curve. The
returned :class:`repro.rl.rollout.RolloutBatch` is flattened time-major
(slice ``t`` of all environments precedes slice ``t+1``), so the PPO
update consumes it unchanged.

Two sampling modes are supported:

* **Shared stream** (default): one generator drives action noise and
  resets for the whole fleet, and network forwards are batched over the
  stacked observations. Fastest, and bit-identical to what PR 4 shipped,
  but an environment's trajectory depends on the fleet it runs in.
* **Independent streams** (``independent_streams=True``): environment
  ``i`` owns the ``stream_offset + i``-th generator spawned from the
  root seed, and both its action noise and its network forwards are
  per-environment (batch size 1). An environment's trajectory is then a
  pure function of ``(networks, seed, stream_offset + i)`` — a fleet's
  batch equals the column-interleave of any chunking of that fleet
  across collectors, which is what lets a training campaign shard
  collection over workers without changing the resulting PPO update.
  The batch-1 forwards are not an oversight: BLAS matrix products here
  are *not* row-stable across batch sizes (``(X @ W)[:m]`` need not
  bitwise equal ``X[:m] @ W``), so batched forwards would break exact
  chunk invariance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.meanfield.mfc_env import FleetStep, gather_fleet_step
from repro.rl.gae import compute_gae
from repro.rl.nn import DirichletPolicyNetwork, GaussianPolicyNetwork, ValueNetwork
from repro.rl.rollout import RolloutBatch
from repro.utils.rng import as_generator, spawn_generators

__all__ = ["VectorRolloutCollector", "step_lockstep"]


def step_lockstep(
    envs: Sequence,
    actions: np.ndarray,
    reset_rngs: Sequence[np.random.Generator] | None = None,
) -> FleetStep:
    """Advance ``E`` lock-step environments by one slice of raw actions.

    Environments of one class that defines a batched
    ``step_raw_batch(envs, actions, reset_rngs)`` classmethod (the
    mean-field environments) take it; any other fleet steps each
    environment's ``step_raw`` in row order. Either way a row whose
    episode ended is reset from ``reset_rngs[i]`` before the next row
    steps, so the draws on a shared generator come in the order of
    stepping the environments one at a time.
    """
    kind = type(envs[0])
    batched = getattr(kind, "step_raw_batch", None)
    if batched is not None and all(type(env) is kind for env in envs):
        return batched(envs, actions, reset_rngs)
    return gather_fleet_step(
        envs,
        (env.step_raw(action) for env, action in zip(envs, actions)),
        reset_rngs,
    )


class VectorRolloutCollector:
    """Collects fixed-size batches from ``E`` environments in lock-step.

    Parameters
    ----------
    envs:
        Environments, each with ``reset(rng) -> obs`` and
        ``step_raw(action) -> (obs, reward, done, info)``. All must share
        observation/action geometry.
    policy, value:
        The actor and critic networks being trained. The policy is a
        :class:`~repro.rl.nn.GaussianPolicyNetwork` or a
        :class:`~repro.rl.nn.DirichletPolicyNetwork`; actions are sampled
        from its ``distribution``.
    gamma, gae_lambda:
        Discounting parameters for advantage estimation.
    seed:
        Root seed. With ``independent_streams`` pass an ``int`` (or a
        fresh ``SeedSequence``-backed generator) so that re-creating a
        collector for a chunk reproduces the same per-environment
        streams.
    independent_streams:
        Give environment ``i`` its own spawned generator (child
        ``stream_offset + i`` of the root seed) and use per-environment
        batch-1 network forwards, making each column of the batch
        independent of the fleet size. See the module docstring.
    stream_offset:
        Global index of the first environment of this collector within
        the (conceptual) full fleet. Only meaningful with
        ``independent_streams``; a collector over chunk ``[k, k+m)`` of
        a fleet reproduces that fleet's columns when given
        ``stream_offset=k``.
    """

    def __init__(
        self,
        envs,
        policy: GaussianPolicyNetwork | DirichletPolicyNetwork,
        value: ValueNetwork,
        gamma: float,
        gae_lambda: float,
        seed: int | np.random.Generator | None = None,
        independent_streams: bool = False,
        stream_offset: int = 0,
    ) -> None:
        self.envs = list(envs)
        if not self.envs:
            raise ValueError("need at least one environment")
        if stream_offset < 0:
            raise ValueError(f"stream_offset must be >= 0, got {stream_offset}")
        if stream_offset and not independent_streams:
            raise ValueError("stream_offset requires independent_streams=True")
        self.policy = policy
        self.value = value
        self.gamma = gamma
        self.gae_lambda = gae_lambda
        if independent_streams:
            # Child i of the root seed belongs to *global* environment i,
            # so a chunked collector reproduces the fleet's streams.
            self._env_rngs = spawn_generators(
                seed, stream_offset + len(self.envs)
            )[stream_offset:]
            self._rng = None
        else:
            self._env_rngs = None
            self._rng = as_generator(seed)
        self._obs: np.ndarray | None = None  # (E, obs_dim) stacked
        self._episode_returns_running = np.zeros(len(self.envs))
        self.total_env_steps = 0

    @property
    def independent_streams(self) -> bool:
        return self._env_rngs is not None

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    def _reset_rng(self, i: int) -> np.random.Generator:
        """The generator environment ``i`` resets (and then steps) with."""
        if self._env_rngs is not None:
            return self._env_rngs[i]
        return self._rng

    def collect(self, batch_size: int) -> RolloutBatch:
        """Roll the policy for ``batch_size`` total environment steps.

        ``batch_size`` must be divisible by the number of environments;
        each environment contributes ``batch_size / E`` steps. Truncated
        episode ends are bootstrapped with the value of the final state:
        the GAE pass sees ``r + γ·V(s_final)`` at the truncated step.
        Without this, the critic of an infinite-horizon problem would
        have to model the remaining episode time, which the observation
        deliberately does not contain.
        """
        e = self.num_envs
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_size % e != 0:
            raise ValueError(
                f"batch_size {batch_size} must be divisible by num_envs {e}"
            )
        steps = batch_size // e
        if self._obs is None:
            self._obs = np.stack(
                [
                    np.asarray(env.reset(self._reset_rng(i)), dtype=np.float64)
                    for i, env in enumerate(self.envs)
                ]
            )
            self._episode_returns_running[:] = 0.0

        obs_dim = self.policy.obs_dim
        act_dim = self.policy.action_dim
        dist = self.policy.distribution
        obs_buf = np.empty((steps, e, obs_dim))
        act_buf = np.empty((steps, e, act_dim))
        logp_buf = np.empty((steps, e))
        rew_buf = np.empty((steps, e))
        gae_rew_buf = np.empty((steps, e))
        done_buf = np.zeros((steps, e), dtype=bool)
        val_buf = np.empty((steps, e))
        episode_returns: list[float] = []

        for t in range(steps):
            obs = self._obs
            if self._env_rngs is not None:
                # Per-environment batch-1 forwards: keeps every column a
                # pure function of (networks, seed, global env index).
                actions = np.empty((e, act_dim))
                logps = np.empty(e)
                values = np.empty(e)
                for i in range(e):
                    row = obs[i : i + 1]
                    *params_i, _ = self.policy.forward(row)
                    action_i = dist.sample(*params_i, self._env_rngs[i])
                    actions[i] = action_i[0]
                    logps[i] = dist.log_prob(action_i, *params_i)[0]
                    values[i] = self.value(row)[0]
            else:
                *params, _ = self.policy.forward(obs)
                actions = dist.sample(*params, self._rng)
                logps = dist.log_prob(actions, *params)
                values = self.value(obs)

            obs_buf[t] = obs
            act_buf[t] = actions
            logp_buf[t] = logps
            val_buf[t] = values

            fleet = step_lockstep(
                self.envs, actions, [self._reset_rng(i) for i in range(e)]
            )
            rew_buf[t] = fleet.rewards
            gae_rew_buf[t] = fleet.rewards
            done_buf[t] = fleet.dones
            self._episode_returns_running += fleet.rewards
            bootstrap_envs: list[int] = []
            for i in np.flatnonzero(fleet.dones):
                if fleet.infos[i].get("truncated", True):
                    bootstrap_envs.append(i)
                episode_returns.append(float(self._episode_returns_running[i]))
                self._episode_returns_running[i] = 0.0
            if bootstrap_envs:
                if self._env_rngs is not None:
                    # Batch-1 calls: batched BLAS is not row-stable.
                    final_values = np.array(
                        [
                            float(self.value(fleet.obs[i : i + 1])[0])
                            for i in bootstrap_envs
                        ]
                    )
                else:
                    # One batched critic call for all truncated episode ends.
                    final_values = self.value(fleet.obs[bootstrap_envs])
                gae_rew_buf[t, bootstrap_envs] += self.gamma * final_values
            self._obs = fleet.next_obs
            self.total_env_steps += e

        # Bootstrap the still-running tails (one batched critic call in
        # shared-stream mode, batch-1 calls in independent-streams mode).
        if self._env_rngs is not None:
            tail_values = np.array(
                [float(self.value(self._obs[i : i + 1])[0]) for i in range(e)]
            )
        else:
            tail_values = self.value(self._obs)
        advantages = np.empty((steps, e))
        targets = np.empty((steps, e))
        for i in range(e):
            bootstrap = 0.0 if done_buf[-1, i] else float(tail_values[i])
            advantages[:, i], targets[:, i] = compute_gae(
                gae_rew_buf[:, i],
                val_buf[:, i],
                done_buf[:, i],
                bootstrap,
                self.gamma,
                self.gae_lambda,
            )
        return RolloutBatch(
            obs=obs_buf.reshape(batch_size, obs_dim),
            actions=act_buf.reshape(batch_size, act_dim),
            log_probs=logp_buf.reshape(batch_size),
            rewards=rew_buf.reshape(batch_size),
            dones=done_buf.reshape(batch_size),
            values=val_buf.reshape(batch_size),
            advantages=advantages.reshape(batch_size),
            value_targets=targets.reshape(batch_size),
            episode_returns=episode_returns,
        )
