"""Batched finite system with stochastic per-dispatcher observation delays.

:class:`BatchedDelayedFiniteEnv` generalizes
:class:`repro.queueing.batched_env.BatchedFiniteSystemEnv` from the
paper's synchronous broadcast (every dispatcher routes against the
epoch-start states) to a :class:`repro.queueing.delays.DelayModel`:
each epoch, a fraction of the dispatcher population holds the snapshot
broadcast ``k`` epochs ago, for ``k = 0..K``.

Mechanically the environment keeps a :class:`SnapshotRing` of the last
``K + 1`` queue-state snapshots per replica. Under per-packet randomization
(the paper's experimental setting and the only mode supported here),
each arriving packet's dispatcher has snapshot age ``k`` with the
epoch's population fraction ``w_k``, so by Poisson thinning queue ``j``
receives the frozen rate

    λ_j = M λ_t · Σ_k w_k · f_k[j]

where ``f_k`` are the per-queue routing fractions computed against the
age-``k`` snapshot (one pass of the shared choose stage per age with
positive mass). When the delay model is a point mass at age 0 the single
pass consumes the generator stream exactly like the undelayed
environment — the two are **bit-identical** under a shared seed (tested
in ``tests/test_delays.py``).

The upper-level policy is still queried on the *current* broadcast
(``H_t``): the generalization targets the dispatchers' queue-state
observations, which is where the paper's delay sensitivity lives; with
the stationary policies used by the stochastic-delay scenarios the
distinction is moot. Policies trained with **live age features**
(``features.live_age``, the campaign's delayed regimes) additionally
receive each replica's current delay-regime context through the
``age_contexts`` channel of ``decision_rules_batch`` — computed
deterministically from the regime indices, so feeding it never perturbs
the generator stream. The matching mean-field propagator is
:mod:`repro.meanfield.delayed`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

import numpy as np

from repro.config import SystemConfig

# Sampling goes through the base class; the name stays importable here
# because perfbench's traced stream workload wraps this module attribute.
from repro.queueing.backends import draw_uniform_queue_samples  # noqa: F401
from repro.queueing.batched_env import _BatchedQueueSystemBase, RulesLike
from repro.queueing.delays import DelayModel, DeterministicDelay

__all__ = ["BatchedDelayedFiniteEnv"]


class SnapshotRing:
    """Delay-regime chain plus the last ``K + 1`` queue-state snapshots.

    The observation state of every environment whose dispatchers route
    on stale broadcasts (:class:`BatchedDelayedFiniteEnv` and the
    delayed :class:`~repro.queueing.hybrid_env.BatchedHybridFleetEnv`):
    per-replica regime indices of the :class:`DelayModel` chain and a
    ring of snapshots, newest last, so element ``-1-k`` is the age-``k``
    snapshot.
    """

    def __init__(self, delay_model: DelayModel, num_replicas: int) -> None:
        self.delay_model = delay_model
        self.regimes = np.zeros(num_replicas, dtype=np.intp)
        self._snapshots: deque[np.ndarray] = deque(
            maxlen=delay_model.max_delay + 1
        )

    def reset(self, states: np.ndarray, rng: np.random.Generator) -> None:
        """Start synced at ``states`` and draw the initial regimes."""
        self.rebuild(states)
        self.regimes = self.delay_model.sample_initial_regimes_batch(
            self.regimes.size,
            rng if self.delay_model.num_regimes > 1 else None,
        )

    def rebuild(self, states: np.ndarray) -> None:
        """Drop the history and re-seed it with ``states``."""
        self._snapshots.clear()
        self._snapshots.append(states.copy())

    def snapshot(self, age: int, num_queues: int) -> np.ndarray:
        """The age-``age`` snapshot of a fleet of ``num_queues`` queues.

        Before ``age`` epochs have elapsed the oldest available snapshot
        (the initial state) is returned — the system starts synced.
        """
        if not 0 <= age <= self.delay_model.max_delay:
            raise ValueError(
                f"age must lie in [0, {self.delay_model.max_delay}]"
            )
        if not self._snapshots:
            raise RuntimeError("environment must be reset before use")
        snap = self._snapshots[max(len(self._snapshots) - 1 - age, 0)]
        if snap.shape[1] != num_queues:
            # The ring still holds snapshots taken before the fleet was
            # mutated (e.g. resize_queue_fleet changed M) — routing
            # against a stale-shaped view would corrupt the gather.
            raise RuntimeError(
                f"snapshot ring holds {snap.shape[1]}-queue snapshots but "
                f"the fleet now has {num_queues} queues; call "
                "rebuild_snapshots() after mutating the fleet geometry"
            )
        return snap

    def views(
        self, live: np.ndarray, num_clients: int, rng: np.random.Generator
    ) -> Iterator[tuple[int, np.ndarray | None, np.ndarray]]:
        """``(age, weight, states)`` per snapshot clients route on.

        A point mass at age 0 yields the live states unweighted and draws
        nothing. Otherwise the epoch's dispatcher fractions are drawn
        first, then every age with positive mass is yielded in order.
        """
        if self.delay_model.is_point_mass_at_zero:
            yield 0, None, live
            return
        weights = self.delay_model.sample_fractions_batch(
            self.regimes, num_clients, rng
        )
        for age in range(self.delay_model.max_delay + 1):
            w = weights[:, age]
            if np.any(w > 0.0):
                yield age, w, self.snapshot(age, live.shape[1])

    def advance(
        self, states: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Append the post-epoch snapshot and step the regime chain.

        Returns the regimes that were in effect during the epoch.
        """
        self._snapshots.append(states.copy())
        used = self.regimes
        if self.delay_model.num_regimes > 1:
            self.regimes = self.delay_model.step_regimes_batch(used, rng)
        return used


class BatchedDelayedFiniteEnv(_BatchedQueueSystemBase):
    """``E`` replicas of the finite system under stochastic observation delays.

    Parameters
    ----------
    config : SystemConfig
        System parameters; ``config.delta_t`` remains the broadcast
        period (snapshot ages are multiples of it).
    num_replicas : int
        Lock-step replica count ``E``.
    delay_model : DelayModel, optional
        Snapshot-age distribution; defaults to
        :class:`~repro.queueing.delays.DeterministicDelay` (age 0), the
        paper's model.
    arrival_process, service_rates, seed :
        As in the batched base environment.
    per_packet_randomization : bool, optional
        Must remain ``True``: committed-choice routing would tie one
        epoch-long commitment to a single snapshot age per client,
        which is a different (and less interesting) model than the
        per-packet population mixture implemented here.
    """

    def __init__(
        self,
        config: SystemConfig,
        num_replicas: int,
        delay_model: DelayModel | None = None,
        arrival_process=None,
        service_rates: np.ndarray | None = None,
        per_packet_randomization: bool = True,
        seed=None,
        backend: str | None = None,
        chaos=None,
    ) -> None:
        if not per_packet_randomization:
            raise ValueError(
                "BatchedDelayedFiniteEnv models per-packet snapshot-age "
                "mixtures; committed-choice routing is not supported"
            )
        super().__init__(
            config,
            num_replicas,
            arrival_process=arrival_process,
            service_rates=service_rates,
            per_packet_randomization=True,
            seed=seed,
            backend=backend,
            chaos=chaos,
        )
        self.delay_model = (
            delay_model if delay_model is not None else DeterministicDelay(0)
        )
        self._ring = SnapshotRing(self.delay_model, self.num_replicas)

    @property
    def delay_regimes(self) -> np.ndarray:
        """Per-replica delay-regime indices, shape ``(E,)``."""
        return self._ring.regimes.copy()

    def snapshot(self, age: int) -> np.ndarray:
        """The age-``age`` queue-state snapshot, shape ``(E, M)``.

        Before ``age`` epochs have elapsed the oldest available snapshot
        (the initial state) is returned — the system starts synced.
        """
        return self._ring.snapshot(age, self.config.num_queues)

    def rebuild_snapshots(self) -> None:
        """Restart snapshot history from the current state.

        Fleet-geometry mutations (a queue-count resize) invalidate every
        buffered ``(E, M)`` snapshot; this drops them and re-seeds the
        ring with the current state, as if the system had just synced.
        Delay history (regimes) is untouched.
        """
        if self._states is None:
            raise RuntimeError("environment must be reset before use")
        self._ring.rebuild(self._states)

    def reset(self, seed=None) -> np.ndarray:
        hist = super().reset(seed)
        self._ring.reset(self._states, self._rng)
        return hist

    def _routing_views(self):
        for _, weight, states in self._ring.views(
            self._states, self.config.num_clients, self._rng
        ):
            yield weight, states

    def step_with_policy(self, policy):
        """Algorithm 1 with the live-age channel for delay-aware policies.

        Policies trained on live regime context (``features.live_age``)
        are queried with each replica's current delay-regime age context
        alongside ``H_t``; everything else takes the parent's exact
        code path (and the parent's exact generator stream — the
        contexts are a deterministic function of the regime indices).
        """
        features = getattr(policy, "features", None)
        if (
            features is not None
            and getattr(features, "live_age", False)
            and not policy.is_stationary()
        ):
            from repro.meanfield.features import regime_age_contexts_batch

            hists = self.empirical_distributions()
            contexts = regime_age_contexts_batch(
                self.delay_model, self._ring.regimes
            )
            rules = policy.decision_rules_batch(
                hists, self._lam_modes, self._rng, age_contexts=contexts
            )
            return self.step(rules)
        return super().step_with_policy(policy)

    def step(self, rules: RulesLike):
        hist, rewards, info = super().step(rules)
        info["delay_regimes"] = self._ring.advance(self._states, self._rng)
        return hist, rewards, info
