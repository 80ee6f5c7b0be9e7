"""Hybrid fleet environment: exact tracked subsystem, mean-field remainder.

Theorem 1 bounds the finite-system/mean-field gap as ``N, M → ∞``, but
simulating every queue caps brute force near ``E × M ≲ 10⁵``.
:class:`BatchedHybridFleetEnv` splits the fleet: the first ``M_track``
queues evolve with the exact batched kernels (the same
:class:`~repro.queueing.backends.protocol.EpochKernel` calls as
:class:`~repro.queueing.batched_env.BatchedFiniteSystemEnv`, so numpy
and numba backends both work), while the remaining
``M_field = M - M_track`` queues are closed by the exact mean-field
propagator (:class:`repro.meanfield.delayed.DelayedMeanFieldPropagator`
over one field law per replica) — the finite-window-plus-field
construction of Sparse Mean-Field Load Balancing (arXiv:2312.12973),
with the delay-mixture generality of Doldo & Pender (arXiv:2112.05899)
when a :class:`~repro.queueing.delays.DelayModel` is attached.

Coupling
--------
Clients sample over the *full* fleet index space ``[0, M)``. Field
queues are represented by virtual states drawn i.i.d. from the field law
(one inverse-CDF draw per epoch and snapshot age), so the tracked
half's frozen rates carry the same sampling fluctuations as a fully
simulated fleet. Field queues, in turn, are sampled and ranked against
the global mixture law

    μ_t = (M_track / M) · H_t  +  (M_field / M) · ν_t

(per snapshot age), and the delay-mixture closure transports those
rates to current states through the field's own laws. Arrival mass is
exchanged exactly: the field absorbs ``M λ_t`` minus the tracked half's
sampled rates (surfaced as ``info["field_arrival_mass"]``), and its
frozen rates are rescaled so ``Σ_z ν_t(z) r(z)`` matches that remainder,
so

    tracked offered + field offered == M λ_t   (every epoch, exactly).

Limits
------
* ``M_field = 0`` — every code path, draw shape and operation matches
  :class:`BatchedFiniteSystemEnv` (or
  :class:`~repro.queueing.delayed_env.BatchedDelayedFiniteEnv` when a
  delay model is attached): the two are **bit-identical** under a
  shared seed.
* ``M_track = 0`` — no client sampling happens at all, the mixture is
  ``ν_t``, no rescaling applies and the field performs the identical
  operations as
  :func:`repro.meanfield.convergence.mean_field_trajectory` /
  :func:`repro.meanfield.delayed.delayed_mean_field_trajectory`.

The observation handed to policies (and returned by
:meth:`empirical_distributions`) is the mixture law
``(M_track/M) H_t + (M_field/M) ν_t``. Graph-topology (local) closures
are not supported — sparse dispatch needs per-queue laws; see
``docs/scaling.md``. Degradation schedules (chaos) are rejected: events
address physical queue indices, which the field half does not have.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.delayed import DelayedMeanFieldPropagator
from repro.meanfield.discretization import per_state_arrival_rates
from repro.queueing.batched_env import RulesLike, _BatchedQueueSystemBase
from repro.queueing.clients import stack_rules
from repro.queueing.delayed_env import SnapshotRing
from repro.queueing.delays import DelayModel
from repro.utils.rng import as_generator

__all__ = ["BatchedHybridFleetEnv"]

#: Below this natural-to-target mass ratio the rescaling factor would
#: blow up; fall back to a state-uniform rate with the exact target mass.
_SCALE_EPS = 1e-12


class BatchedHybridFleetEnv(_BatchedQueueSystemBase):
    """``E`` replicas of an ``M``-queue fleet with ``M_track`` exact queues.

    Parameters
    ----------
    config : SystemConfig
        System parameters; ``config.num_queues`` is the *full* fleet
        size ``M``.
    num_replicas : int
        Lock-step replica count ``E``.
    num_tracked : int
        Exactly simulated queue count ``M_track``, in ``[0, M]``.
    delay_model : DelayModel, optional
        Snapshot-age distribution for dispatchers; ``None`` is the
        paper's synchronous broadcast. Requires per-packet
        randomization, as in
        :class:`~repro.queueing.delayed_env.BatchedDelayedFiniteEnv`.
    arrival_process, per_packet_randomization, seed, backend :
        As in the batched base environment.
    """

    def __init__(
        self,
        config: SystemConfig,
        num_replicas: int,
        num_tracked: int,
        delay_model: DelayModel | None = None,
        arrival_process=None,
        per_packet_randomization: bool = False,
        seed=None,
        backend: str | None = None,
        chaos=None,
    ) -> None:
        if chaos is not None:
            raise ValueError(
                "BatchedHybridFleetEnv does not support degradation "
                "schedules; chaos events address physical queue indices, "
                "which the mean-field half does not have"
            )
        num_tracked = int(num_tracked)
        if not 0 <= num_tracked <= config.num_queues:
            raise ValueError(
                f"num_tracked must lie in [0, {config.num_queues}], "
                f"got {num_tracked}"
            )
        if delay_model is not None:
            if not isinstance(delay_model, DelayModel):
                raise ValueError(
                    f"delay_model must be a DelayModel, got {delay_model!r}"
                )
            if not per_packet_randomization:
                raise ValueError(
                    "delayed hybrid fleets model per-packet snapshot-age "
                    "mixtures; committed-choice routing is not supported"
                )
        super().__init__(
            config,
            num_replicas,
            arrival_process=arrival_process,
            per_packet_randomization=per_packet_randomization,
            seed=seed,
            backend=backend,
        )
        self.num_tracked = num_tracked
        self.num_field = config.num_queues - num_tracked
        # The serve-stage kernel only ever sees the tracked subsystem.
        self.service_rates = np.full(num_tracked, config.service_rate)
        self.delay_model = delay_model
        self._max_delay = 0 if delay_model is None else delay_model.max_delay
        self._field: DelayedMeanFieldPropagator | None = None
        # Tracked-state snapshots (only kept when a delay model is attached).
        self._ring = (
            None
            if delay_model is None
            else SnapshotRing(delay_model, self.num_replicas)
        )

    # -- state access ---------------------------------------------------
    @property
    def tracked_fraction(self) -> float:
        """Mixture weight ``M_track / M`` of the exact subsystem."""
        return self.num_tracked / self.config.num_queues

    @property
    def field_laws(self) -> np.ndarray | None:
        """Current field laws ``ν_t`` per replica, ``(E, S)`` (or None)."""
        return None if self._field is None else self._field.nu

    @property
    def delay_regimes(self) -> np.ndarray:
        """Per-replica delay-regime indices, shape ``(E,)``."""
        if self._ring is None:
            return np.zeros(self.num_replicas, dtype=np.intp)
        return self._ring.regimes.copy()

    def _tracked_histograms(self, states: np.ndarray) -> np.ndarray:
        """Histogram of a tracked snapshot as per-replica laws, ``(E, S)``."""
        s = self.config.num_queue_states
        offsets = np.arange(self.num_replicas, dtype=np.int64)[:, None] * s
        counts = np.bincount(
            (states + offsets).ravel(), minlength=self.num_replicas * s
        ).reshape(self.num_replicas, s)
        return counts.astype(np.float64) / self.num_tracked

    def empirical_distributions(self) -> np.ndarray:
        """Mixture law ``(M_track/M) H_t + (M_field/M) ν_t``, ``(E, S)``."""
        if self._states is None:
            raise RuntimeError("environment must be reset before use")
        if self.num_field == 0:
            return super().empirical_distributions()
        field = self._field.nu
        if self.num_tracked == 0:
            return field
        w = self.tracked_fraction
        return w * self._tracked_histograms(self._states) + (1.0 - w) * field

    def reset(self, seed=None) -> np.ndarray:
        if seed is not None:
            self._rng = as_generator(seed)
        self._states = np.full(
            (self.num_replicas, self.num_tracked),
            self.config.initial_state,
            dtype=np.int64,
        )
        self._lam_modes = self.arrivals.sample_initial_modes_batch(
            self.num_replicas, self._rng
        )
        self._t = 0
        if self.num_field > 0:
            nu0 = np.zeros((self.num_replicas, self.config.num_queue_states))
            nu0[:, self.config.initial_state] = 1.0
            self._field = DelayedMeanFieldPropagator(
                nu0,
                self._max_delay,
                self.config.service_rate,
                self.config.delta_t,
            )
        else:
            self._field = None
        if self._ring is not None:
            self._ring.reset(self._states, self._rng)
        return self.empirical_distributions()

    # -- coupling -------------------------------------------------------
    def _observed_states(self, tracked: np.ndarray, age: int) -> np.ndarray:
        """Full-fleet observed states: tracked snapshot + virtual field."""
        if self.num_field == 0:
            return tracked
        # Inverse-CDF draw from the age-`age` field laws: one
        # rng.random((E, M_field)) call, the only draw the hybrid adds to
        # the dense environment's stream.
        cum = np.cumsum(self._field.laws(age), axis=1)
        cum[:, -1] = 1.0
        u = self._rng.random((self.num_replicas, self.num_field))
        virtual = np.empty(u.shape, dtype=np.int64)
        for e in range(self.num_replicas):
            virtual[e] = np.searchsorted(cum[e], u[e], side="right")
        np.minimum(virtual, self.config.num_queue_states - 1, out=virtual)
        return np.concatenate([tracked, virtual], axis=1)

    def _routing_views(self):
        """Full-fleet views: each tracked snapshot plus its virtual field.

        Clients sample over the full fleet index space; the base class
        slices the rates back to the tracked queues, which keeps every
        elementwise operation bit-identical to the dense (or delayed)
        environment when ``M_field = 0``.
        """
        if self._ring is None:
            views = ((0, None, self._states),)
        else:
            views = self._ring.views(
                self._states, self.config.num_clients, self._rng
            )
        for age, weight, tracked in views:
            yield weight, self._observed_states(tracked, age)

    def _tracked_hists_by_age(self) -> "list[np.ndarray] | None":
        """Age-indexed epoch-start tracked histograms, each ``(E, S)``."""
        if self.num_tracked == 0:
            return None
        if self.delay_model is None or self._max_delay == 0:
            return [self._tracked_histograms(self._states)]
        return [
            self._tracked_histograms(self._ring.snapshot(age, self.num_tracked))
            for age in range(self._max_delay + 1)
        ]

    def _advance_field(
        self, rules: RulesLike, lam: np.ndarray, target: np.ndarray
    ) -> np.ndarray:
        """Advance the field laws one epoch; returns the expected drops per
        field queue, ``(E,)``.

        Age-``k`` dispatchers sample against the age-``k`` mixture law
        ``μ``; the closure transports their rates to current states
        through the field's own laws and propagator products. Eq. 22 is
        evaluated only where an age has weight, in one stacked call over
        the replicas that weigh it (elsewhere its rates stay zero, or
        ``None`` for the whole age). With queues tracked, the
        rates are then rescaled so the field absorbs exactly ``target``
        per queue.
        """
        probs = stack_rules(rules, self.num_replicas)
        hists = self._tracked_hists_by_age()
        w = self.tracked_fraction
        pmfs = (
            np.ones((self.num_replicas, 1))
            if self._ring is None
            else self.delay_model.pmfs[self._ring.regimes]
        )
        age_rates = []
        for age in range(self._max_delay + 1):
            live = np.flatnonzero(pmfs[:, age] > 0.0)
            if live.size == 0:
                age_rates.append(None)
                continue
            mix = self._field.laws(age)
            if hists is not None:
                mix = (1.0 - w) * mix + w * hists[age]
            r_age = np.zeros(mix.shape)
            r_age[live] = per_state_arrival_rates(mix[live], probs[live], lam[live])
            age_rates.append(r_age)
        rates = self._field.frozen_rates(age_rates, pmfs)
        if hists is not None:
            # Pin absorbed mass to the exact remainder the tracked half
            # left over: Σ_z ν(z) r(z) == target afterwards.
            target = np.maximum(target, 0.0)
            nu = self._field.laws(0)
            natural = np.matmul(nu[:, None, :], rates[:, :, None])[:, 0, 0]
            ok = natural > _SCALE_EPS * np.maximum(target, 1.0)
            scale = target / np.where(ok, natural, 1.0)
            rates = np.where(
                ok[:, None], rates * scale[:, None], target[:, None]
            )
        return self._field.advance(rates)

    def step(self, rules: RulesLike) -> tuple[np.ndarray, np.ndarray, dict]:
        if self._states is None:
            raise RuntimeError("environment must be reset before use")
        self._check_rules(rules)
        m = self.config.num_queues
        lam = self.current_rates
        rates = self._frozen_rates(rules)
        if self.num_field > 0:
            # Exact remainder of the offered mass M·λ — the conservation
            # invariant is enforced here by construction.
            field_mass = m * lam - rates.sum(axis=1)
            field_drops = self.num_field * self._advance_field(
                rules, lam, field_mass / self.num_field
            )
        else:
            field_mass = np.zeros(self.num_replicas)
            field_drops = np.zeros(self.num_replicas)
        if self.num_tracked > 0:
            new_states, drops = self.kernel.serve_epoch(
                self._states,
                rates,
                self.service_rates,
                self.config.delta_t,
                self.config.buffer_size,
                self._rng,
            )
            tracked_drops = drops.sum(axis=1)
            self._states = new_states
        else:
            tracked_drops = np.zeros(self.num_replicas)
        # Integer drop counts survive the M_field = 0 reduction; mixing
        # in the field's expected drops promotes to float.
        total_drops = (
            tracked_drops if self.num_field == 0 else tracked_drops + field_drops
        )
        self._lam_modes = self.arrivals.step_modes_batch(
            self._lam_modes, self._rng
        )
        self._t += 1
        info = {
            "arrival_rates": rates,
            "t": self._t,
            "field_arrival_mass": field_mass,
            "field_drops": field_drops,
            "tracked_drops": tracked_drops,
        }
        per_queue_drops = total_drops / m
        info["drops_total"] = total_drops
        info["drops_per_queue"] = per_queue_drops
        rewards = -self.config.drop_penalty * per_queue_drops
        if self._ring is not None:
            info["delay_regimes"] = self._ring.advance(self._states, self._rng)
        return self.empirical_distributions(), rewards, info
