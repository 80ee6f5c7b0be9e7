"""MFC MDP under stochastic observation delays (training environment).

:class:`DelayedMeanFieldEnv` is the :class:`repro.meanfield.mfc_env.MeanFieldEnv`
of the delayed-information regimes: the epoch map runs through the
delay-mixture closure of
:class:`repro.meanfield.delayed.DelayedMeanFieldPropagator` (a fraction
``p_k`` of dispatchers routes against the law from ``k`` epochs back),
the delay regime follows the model's exogenous Markov chain, and the
observation can carry the regime-context features of
:class:`repro.meanfield.features.ObservationFeatures`.

Two exactness guarantees keep it a drop-in replacement:

* With a point mass at age 0 the dynamics take the parent's exact code
  path (same propagator call, same RNG draws) — **bit-identical** to
  :class:`MeanFieldEnv`, not merely close.
* With features off the observation is exactly ``[ν, one_hot(λ mode)]``.

This is the environment the per-regime training campaign collects from;
the finite-system counterpart is
:class:`repro.queueing.delayed_env.BatchedDelayedFiniteEnv`, which
consumes the same :class:`repro.queueing.delays.DelayModel` objects.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.delayed import DelayedMeanFieldPropagator
from repro.meanfield.features import (
    ObservationFeatures,
    age_context,
    regime_age_context,
)
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.delays import DelayModel, DeterministicDelay

__all__ = ["DelayedMeanFieldEnv"]


class DelayedMeanFieldEnv(MeanFieldEnv):
    """Mean-field control MDP with delayed snapshots and context features.

    Parameters
    ----------
    config, horizon, propagator, arrival_process, seed:
        As in :class:`repro.meanfield.mfc_env.MeanFieldEnv`.
    delay_model:
        Snapshot-age model; defaults to the paper's synchronous
        broadcast (:class:`repro.queueing.delays.DeterministicDelay`
        with ``k = 0``), under which this class is bit-identical to the
        parent.
    features:
        Context features appended to the observation. Age features are
        the *stationary* context of ``delay_model`` (frozen per
        environment — see :func:`repro.meanfield.features.age_context`),
        matching what a deployed :class:`repro.policies.learned.NeuralPolicy`
        sees through plumbing without a live channel. With
        ``features.live_age`` they are instead the *current* delay
        regime's conditional context
        (:func:`repro.meanfield.features.regime_age_context`), matching
        the per-replica live channel of
        :meth:`repro.queueing.delayed_env.BatchedDelayedFiniteEnv.step_with_policy`.
    """

    def __init__(
        self,
        config: SystemConfig,
        horizon: int | None = None,
        propagator: str = "exact",
        arrival_process: MarkovModulatedRate | None = None,
        seed: int | np.random.Generator | None = None,
        delay_model: DelayModel | None = None,
        features: ObservationFeatures | None = None,
    ) -> None:
        self.delay_model = (
            delay_model if delay_model is not None else DeterministicDelay(0)
        )
        super().__init__(
            config,
            horizon=horizon,
            propagator=propagator,
            arrival_process=arrival_process,
            seed=seed,
        )
        self.features = features if features is not None else ObservationFeatures()
        self._age_context = (
            age_context(self.delay_model) if self.features.age else None
        )
        self._regime: int = 0

    # ------------------------------------------------------------------
    @property
    def _nu(self) -> np.ndarray | None:
        """Current law ``ν_t``; the delay propagator holds the only copy."""
        return None if self._delayed is None else self._delayed.laws(0)

    @_nu.setter
    def _nu(self, nu: np.ndarray | None) -> None:
        # Writing the law (reset, set_state, an age-0 step) restarts the
        # history at it, synced: every snapshot age sees the new law.
        if nu is None:
            self._delayed = None
        elif self._delayed is None:
            self._delayed = DelayedMeanFieldPropagator(
                nu,
                self.delay_model.max_delay,
                self.config.service_rate,
                self.config.delta_t,
            )
        else:
            self._delayed.restart(nu)

    @property
    def observation_size(self) -> int:
        return super().observation_size + self.features.extra_dims

    @property
    def delay_regime(self) -> int:
        """Current delay regime (0 for single-regime models)."""
        return self._regime

    def live_age_context(self) -> tuple[float, float]:
        """Age context of the *current* delay regime (no randomness)."""
        return regime_age_context(self.delay_model, self._regime)

    def observation(self) -> np.ndarray:
        base = super().observation()
        age = (
            self.live_age_context()
            if self.features.live_age
            else self._age_context
        )
        extra = self.features.vector(self._nu, age=age)
        if extra.size == 0:
            return base
        return np.concatenate([base, extra])

    # ------------------------------------------------------------------
    def clone(
        self, seed: int | np.random.Generator | None = None
    ) -> "DelayedMeanFieldEnv":
        env = DelayedMeanFieldEnv(
            self.config,
            horizon=self.horizon,
            propagator="exact",
            arrival_process=self.arrivals.replica(),
            seed=seed,
            delay_model=self.delay_model.replica(),
            features=self.features,
        )
        env._propagator = self._propagator
        env.propagator_kind = self.propagator_kind
        return env

    def reset(
        self, seed: int | np.random.Generator | None = None
    ) -> np.ndarray:
        super().reset(seed)
        # Single-regime models draw nothing: keeps the age-0 case on the
        # parent's exact RNG stream.
        if self.delay_model.num_regimes > 1:
            self._regime = int(
                self.delay_model.sample_initial_regimes_batch(1, self._rng)[0]
            )
        else:
            self._regime = 0
        return self.observation()

    @classmethod
    def _advance_batch(
        cls, envs: list["DelayedMeanFieldEnv"], probs: np.ndarray, lams: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Rows whose delay model is all age 0 take the paper's batched
        # epoch map through the configured propagator; the closure rows
        # advance one by one.
        fresh = [i for i, env in enumerate(envs) if env.delay_model.max_delay == 0]
        if len(fresh) == len(envs):
            return super()._advance_batch(envs, probs, lams)
        rates = np.empty((len(envs), probs.shape[1]))
        drops = np.empty(len(envs))
        if fresh:
            rates[fresh], drops[fresh] = super()._advance_batch(
                [envs[i] for i in fresh], probs[fresh], lams[fresh]
            )
        for i, env in enumerate(envs):
            if env.delay_model.max_delay > 0:
                rule = DecisionRule(probs[i], validate=False)
                rates[i] = env._delayed.rule_rates(
                    rule, lams[i], env.delay_model.pmf(env._regime)
                )
                drops[i] = env._delayed.advance(rates[i])
        return rates, drops

    def _finish_step(
        self, drops: float, rates: np.ndarray, lam: float
    ) -> tuple[np.ndarray, float, bool, dict]:
        # The observation, built after _step_exogenous, carries the live
        # age features of the regime the step just entered.
        pmf = self.delay_model.pmf(self._regime)
        obs, reward, done, info = super()._finish_step(drops, rates, lam)
        info["delay_regime"] = self._regime
        info["delay_pmf"] = pmf
        return obs, reward, done, info

    def _step_exogenous(self) -> None:
        super()._step_exogenous()
        # Every regime of an all-age-0 model routes on fresh snapshots, so
        # its chain is not stepped (which keeps the parent's RNG stream).
        if self.delay_model.max_delay > 0 and self.delay_model.num_regimes > 1:
            self._regime = int(
                self.delay_model.step_regimes_batch(
                    np.array([self._regime]), self._rng
                )[0]
            )
