"""The upper-level MFC Markov decision process (paper Section 2.5).

State: ``(ν_t, λ_t) ∈ P(Z) × Λ``. Action: a lower-level decision rule
``h_t : Z^d → P(U)``. Dynamics (Eq. 29): ``ν_{t+1} = T_ν(ν_t, λ_t, h_t)``
via the exact discretization, and ``λ_{t+1} ~ P_λ(λ_t)``; the reward is
the negative expected per-queue packet drops ``-D_t`` (Eq. 31).

The environment exposes a gym-like ``reset``/``step`` API plus a
``step_raw`` entry point that accepts unconstrained action vectors from
the RL stack and normalizes them onto the simplex the way the paper does
(Gaussian policy output + manual normalization).

Lock-step ensembles (the PPO collector, lock-step evaluation, CEM's
candidate fleets) advance through :meth:`MeanFieldEnv.step_batch` and
:meth:`MeanFieldEnv.step_raw_batch`: one Eq. 22 call and one call of
the closed-form propagator
(:class:`repro.meanfield.discretization.ExactPropagator`, the only one)
move all ``E`` laws, and ``step``/``step_raw`` are the ``E = 1`` case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import ExactPropagator, per_state_arrival_rates
from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.clients import stack_rules
from repro.utils.rng import as_generator

__all__ = ["FleetStep", "MeanFieldEnv", "MeanFieldState", "gather_fleet_step"]


@dataclass(frozen=True)
class MeanFieldState:
    """Immutable snapshot of the MFC MDP state."""

    nu: np.ndarray
    lam_mode: int
    t: int

    def copy(self) -> "MeanFieldState":
        return MeanFieldState(self.nu.copy(), self.lam_mode, self.t)


class FleetStep(NamedTuple):
    """One lock-step time slice of ``E`` environments.

    ``obs`` holds each row's observation after the step, the one a
    truncated episode is bootstrapped from; ``next_obs`` is the same
    except in rows whose episode ended and was reset, where it holds
    the first observation of the new episode.
    """

    obs: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    infos: list[dict]
    next_obs: np.ndarray


def gather_fleet_step(
    envs: Sequence,
    row_steps: Iterable[tuple[np.ndarray, float, bool, dict]],
    reset_rngs: Sequence[np.random.Generator] | None = None,
) -> FleetStep:
    """Stack per-row ``(obs, reward, done, info)`` into a :class:`FleetStep`.

    ``row_steps`` is consumed lazily, in row order. With ``reset_rngs`` a
    row whose episode ended is reset from its generator right after its
    own step, before the next row steps: on a generator the rows share,
    that is the draw order of stepping the environments one at a time.
    """
    obs, rewards, dones, infos, resets = [], [], [], [], {}
    for i, (row_obs, reward, done, info) in enumerate(row_steps):
        obs.append(row_obs)
        rewards.append(reward)
        dones.append(done)
        infos.append(info)
        if done and reset_rngs is not None:
            resets[i] = envs[i].reset(reset_rngs[i])
    obs = np.array(obs, dtype=np.float64)
    next_obs = obs
    if resets:
        next_obs = obs.copy()
        for i, row_obs in resets.items():
            next_obs[i] = row_obs
    return FleetStep(
        obs,
        np.asarray(rewards, dtype=np.float64),
        np.asarray(dones, dtype=bool),
        infos,
        next_obs,
    )


def _single_row(fleet: FleetStep) -> tuple[np.ndarray, float, bool, dict]:
    """``(obs, reward, done, info)`` of a one-row :class:`FleetStep`."""
    return fleet.obs[0], float(fleet.rewards[0]), bool(fleet.dones[0]), fleet.infos[0]


class MeanFieldEnv:
    """Mean-field control MDP for delayed-information load balancing.

    Parameters
    ----------
    config:
        System parameters (buffer size, rates, ``Δt``, ``d``, ...).
    horizon:
        Episode length in decision epochs; defaults to
        ``config.episode_length`` (the paper's ``T = 500``).
    propagator:
        Must be ``"exact"``: the epoch map always runs on the closed-form
        rows of :func:`repro.meanfield.discretization.propagate_state`.
        The keyword remains because callers name the kernel explicitly
        (the ``ppo-train-dt5`` workload of ``perfbench/workloads.py``
        does); any other value raises ``ValueError``.
    arrival_process:
        Optional custom modulating chain; defaults to the two-level chain
        of Eq. (32)-(33) built from ``config``.
    """

    def __init__(
        self,
        config: SystemConfig,
        horizon: int | None = None,
        propagator: str = "exact",
        arrival_process: MarkovModulatedRate | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config
        self.horizon = int(horizon if horizon is not None else config.episode_length)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.arrivals = (
            arrival_process
            if arrival_process is not None
            else MarkovModulatedRate.from_config(config)
        )
        if propagator != "exact":
            raise ValueError(
                f"unknown propagator {propagator!r}; the closed-form 'exact' "
                "kernel is the only one"
            )
        self._propagator = ExactPropagator(
            config.num_queue_states, config.service_rate, config.delta_t
        )
        self._rng = as_generator(seed)
        self._nu: np.ndarray | None = None
        self._lam_mode: int = 0
        self._t: int = 0

    # ------------------------------------------------------------------
    # Spaces
    # ------------------------------------------------------------------
    @property
    def num_queue_states(self) -> int:
        return self.config.num_queue_states

    @property
    def num_modes(self) -> int:
        return self.arrivals.num_modes

    @property
    def observation_size(self) -> int:
        return self.num_queue_states + self.num_modes

    @property
    def action_size(self) -> int:
        """Flat size of a raw action: ``S^d * d`` (full rule table)."""
        return self.num_queue_states**self.config.d * self.config.d

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def state(self) -> MeanFieldState:
        if self._nu is None:
            raise RuntimeError("environment must be reset before use")
        return MeanFieldState(self._nu.copy(), self._lam_mode, self._t)

    @property
    def current_rate(self) -> float:
        return self.arrivals.rate(self._lam_mode)

    def observation(self) -> np.ndarray:
        """Flat observation: ``[ν, one_hot(λ mode)]``."""
        nu = self._nu
        if nu is None:
            raise RuntimeError("environment must be reset before use")
        one_hot = np.zeros(self.num_modes)
        one_hot[self._lam_mode] = 1.0
        return np.concatenate([nu, one_hot])

    def set_state(self, nu: np.ndarray, lam_mode: int, t: int = 0) -> None:
        """Force an arbitrary state (used by convergence analysis/tests)."""
        nu = np.asarray(nu, dtype=np.float64)
        if nu.shape != (self.num_queue_states,):
            raise ValueError(f"nu must have shape ({self.num_queue_states},)")
        if np.any(nu < -1e-12) or not np.isclose(nu.sum(), 1.0):
            raise ValueError("nu must be a probability vector")
        if not 0 <= lam_mode < self.num_modes:
            raise ValueError(f"lam_mode {lam_mode} out of range")
        nu = np.maximum(nu, 0.0)
        self._nu = nu / nu.sum()
        self._lam_mode = int(lam_mode)
        self._t = int(t)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def clone(self, seed: int | np.random.Generator | None = None) -> "MeanFieldEnv":
        """Fresh environment with the same configuration (used to build
        lock-step ensembles for the vectorized rollout collector)."""
        return MeanFieldEnv(
            self.config,
            horizon=self.horizon,
            # replica(): stateful processes (ScriptedRate's replay cursor)
            # must not be shared across lock-step clones.
            arrival_process=self.arrivals.replica(),
            seed=seed,
        )

    def reset(self, seed: int | np.random.Generator | None = None) -> np.ndarray:
        """Start a fresh episode: ``ν_0 = δ_{z0}``, ``λ_0 ~ Unif``."""
        if seed is not None:
            self._rng = as_generator(seed)
        nu0 = np.zeros(self.num_queue_states)
        nu0[self.config.initial_state] = 1.0
        self._nu = nu0
        self._lam_mode = self.arrivals.sample_initial_mode(self._rng)
        self._t = 0
        return self.observation()

    def step(self, rule: DecisionRule) -> tuple[np.ndarray, float, bool, dict]:
        """Apply decision rule ``h_t`` for one epoch.

        Returns ``(observation, reward, done, info)`` with
        ``reward = -drop_penalty * D_t`` (per-queue expected drops) and
        ``done`` marking the horizon truncation. The ``E = 1`` case of
        :meth:`step_batch`.
        """
        return _single_row(self.step_batch([self], rule))

    def step_raw(self, raw_action: np.ndarray) -> tuple[np.ndarray, float, bool, dict]:
        """Step with an unconstrained action vector (RL interface); the
        ``E = 1`` case of :meth:`step_raw_batch`."""
        return _single_row(
            self.step_raw_batch([self], np.reshape(raw_action, (1, -1)))
        )

    @classmethod
    def step_raw_batch(
        cls,
        envs: Sequence["MeanFieldEnv"],
        raw_actions: np.ndarray,
        reset_rngs: Sequence[np.random.Generator] | None = None,
    ) -> FleetStep:
        """:meth:`step_batch` from unconstrained actions ``(E, S^d * d)``,
        normalized onto the simplex in one pass
        (:meth:`~repro.meanfield.decision_rule.DecisionRule.stack_from_raw`)."""
        env = envs[0]
        probs = DecisionRule.stack_from_raw(
            raw_actions, env.num_queue_states, env.config.d
        )
        return cls.step_batch(envs, probs, reset_rngs)

    @classmethod
    def step_batch(
        cls,
        envs: Sequence["MeanFieldEnv"],
        rules: "DecisionRule | Sequence[DecisionRule] | np.ndarray",
        reset_rngs: Sequence[np.random.Generator] | None = None,
    ) -> FleetStep:
        """Advance ``E`` lock-step environments by one epoch.

        ``rules`` is one rule for every row, one rule per row, or a
        stacked rule table ``(E, S, ..., S, d)``. The rows must share
        ``(S, d)``, the service rate and ``Δt``. The laws move together:
        one Eq. 22 call over the ``(E, S)`` stack and one call of the
        first row's propagator. Each row then steps its exogenous chains,
        in row order and from its own generator; with ``reset_rngs`` a
        row whose episode ended resets right after its own draw (see
        :func:`gather_fleet_step`). Every row equals its own ``E = 1``
        step bit for bit.
        """
        envs = list(envs)
        if not envs:
            raise ValueError("need at least one environment")
        first = envs[0].config
        s, d = envs[0].num_queue_states, first.d
        for env in envs:
            if env._nu is None:
                raise RuntimeError("environment must be reset before use")
            if env.num_queue_states != s or env.config.d != d:
                raise ValueError("lock-step environments must share (S, d)")
            if (env.config.service_rate, env.config.delta_t) != (
                first.service_rate,
                first.delta_t,
            ):
                raise ValueError(
                    "lock-step environments must share service_rate and "
                    "delta_t: one propagator moves every row"
                )
        if not isinstance(rules, np.ndarray):
            rules = stack_rules(rules, len(envs))
        expected = (len(envs),) + (s,) * d + (d,)
        if rules.shape != expected:
            raise ValueError(
                f"rules have shape {rules.shape}, environments expect "
                f"{expected} (S={s}, d={d})"
            )
        lams = np.array([env.current_rate for env in envs])
        rates, drops = cls._advance_batch(envs, rules, lams)
        return gather_fleet_step(
            envs,
            (
                env._finish_step(drops[i].item(), rates[i], lams[i].item())
                for i, env in enumerate(envs)
            ),
            reset_rngs,
        )

    @classmethod
    def _advance_batch(
        cls, envs: list["MeanFieldEnv"], probs: np.ndarray, lams: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Move every row's law one epoch; returns the frozen rates
        ``(E, S)`` and the expected drops per queue ``(E,)``."""
        nus = np.stack([env._nu for env in envs])
        rates = per_state_arrival_rates(nus, probs, lams)
        nus_next, drops = envs[0]._propagator.propagate(nus, rates)
        for env, nu in zip(envs, nus_next):
            env._nu = nu
        return rates, drops

    def _finish_step(
        self, drops: float, rates: np.ndarray, lam: float
    ) -> tuple[np.ndarray, float, bool, dict]:
        """Close this row's epoch once its law has moved: step the
        exogenous chains and return ``(observation, reward, done, info)``."""
        self._step_exogenous()
        self._t += 1
        done = self._t >= self.horizon
        reward = -self.config.drop_penalty * drops
        info = {
            "drops": drops,
            "arrival_rates": rates,
            "lam": lam,
            "t": self._t,
            # The MDP is infinite-horizon discounted; episode ends are
            # always time-limit truncations (bootstrapped by the RL stack).
            "truncated": done,
        }
        return self.observation(), reward, done, info

    def _step_exogenous(self) -> None:
        """Step the exogenous chains once the law has moved."""
        self._lam_mode = self.arrivals.step_mode(self._lam_mode, self._rng)

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def rollout_return(
        self,
        policy,
        num_steps: int | None = None,
        discount: float | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> float:
        """Total (optionally discounted) reward of ``policy`` over one episode.

        ``policy`` is an upper-level policy exposing
        ``decision_rule(nu, lam_mode, rng)`` (see
        :mod:`repro.policies.base`). The only randomness in the MFC MDP
        is the modulating chain, so a handful of rollouts estimates the
        expected return tightly.
        """
        rng = as_generator(seed)
        steps = int(num_steps if num_steps is not None else self.horizon)
        self.reset(rng)
        total = 0.0
        weight = 1.0
        for _ in range(steps):
            rule = policy.decision_rule(self._nu, self._lam_mode, rng)
            _, reward, done, _ = self.step(rule)
            total += weight * reward
            if discount is not None:
                weight *= discount
            if done:
                break
        return total
