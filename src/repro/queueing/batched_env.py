"""Batched finite-system environments: ``E`` replicas in lock-step.

The Monte-Carlo procedure of Section 4 (and every Figure 4-6 sweep)
repeats the *same* Algorithm 1 episode over ``n`` independent replicas
of the ``N``-client ``M``-queue system. Stepping those replicas one at a
time leaves NumPy dispatch overhead as the dominant cost for the paper's
``M ≤ 1000``-queue systems, so this module runs all replicas through the
same array operations: queue states are shaped ``(E, M)``, every replica
carries its own arrival-mode chain state, and one call into the batched
client/queue kernels (:mod:`repro.queueing.clients`,
:mod:`repro.queueing.queue_ctmc`) advances the whole ensemble by one
decision epoch. A single system is the ``E = 1`` special case.

:class:`BatchedFiniteSystemEnv` is the ``E``-replica ``N``-client system
of Section 2.1; :class:`BatchedInfiniteClientEnv` the ``N → ∞`` system
of Section 2.2. Both are driven by an
:class:`repro.policies.base.UpperLevelPolicy` exactly as Figure 2
prescribes, queried once per replica per epoch (policies that implement
``decision_rules_batch`` answer all replicas with one forward pass;
stationary policies are queried once in total).

The client sample → choose stage is written once, in
:meth:`_BatchedQueueSystemBase._frozen_rates`. The environment families
differ only in three hooks it calls: where clients sample
(:meth:`~_BatchedQueueSystemBase._sample`), which snapshots they observe
(:meth:`~_BatchedQueueSystemBase._routing_views`) and how a queue's
state is encoded (:meth:`~_BatchedQueueSystemBase._encode`).

See ``docs/scaling.md`` for when to prefer the batched path and the
expected speedups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.backends import draw_uniform_queue_samples, get_backend
from repro.queueing.clients import (
    infinite_client_rates_batched,
    stack_rules,
)
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # import cycle: policies build on top of the queue substrate
    from repro.policies.base import UpperLevelPolicy
    from repro.queueing.chaos import DegradationSchedule

__all__ = [
    "BatchedFiniteSystemEnv",
    "BatchedInfiniteClientEnv",
    "BatchedEpisodeResult",
    "run_episodes_batched",
]

RulesLike = "DecisionRule | Sequence[DecisionRule]"


class _BatchedQueueSystemBase:
    """State/bookkeeping shared by the batched finite/infinite systems."""

    #: Replace the client draws by their conditional expectation
    #: (Section 2.2); set by the ``N → ∞`` environments.
    infinite_clients = False

    def __init__(
        self,
        config: SystemConfig,
        num_replicas: int,
        arrival_process: MarkovModulatedRate | None = None,
        service_rates: np.ndarray | None = None,
        per_packet_randomization: bool = False,
        seed=None,
        backend: str | None = None,
        chaos: "DegradationSchedule | None" = None,
    ) -> None:
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        # ``backend`` names an epoch kernel from the simulation-backend
        # registry ("numpy", "numba", "auto", or a kernel instance);
        # every kernel honoring the RNG-draw contract leaves the random
        # streams — and therefore all results — bit-identical.
        self.kernel = get_backend(backend)
        self.config = config
        self.num_replicas = int(num_replicas)
        self.per_packet_randomization = per_packet_randomization
        self.arrivals = (
            arrival_process
            if arrival_process is not None
            else MarkovModulatedRate.from_config(config)
        )
        if service_rates is None:
            self.service_rates = np.full(config.num_queues, config.service_rate)
        else:
            self.service_rates = np.asarray(service_rates, dtype=np.float64)
            if self.service_rates.shape != (config.num_queues,):
                raise ValueError(
                    f"service_rates must have shape ({config.num_queues},)"
                )
            if self.service_rates.min() <= 0:
                raise ValueError("service rates must be > 0")
        if chaos is not None:
            from repro.queueing.chaos import DegradationSchedule

            if not isinstance(chaos, DegradationSchedule):
                raise ValueError(
                    f"chaos must be a DegradationSchedule, got {chaos!r}"
                )
            # Queue indices and the outage timeline are checked here so
            # a bad schedule fails at construction; whether the
            # environment supports topology events is only known at
            # bind time (subclasses attach ``topology`` after this).
            chaos._resolved_events(config.num_queues)
        self.chaos = chaos
        self._chaos_state = None
        self._rng = as_generator(seed)
        self._states: np.ndarray | None = None
        self._lam_modes = np.zeros(self.num_replicas, dtype=np.intp)
        self._t = 0

    # -- state access ---------------------------------------------------
    @property
    def queue_states(self) -> np.ndarray:
        """Current queue fillings, shape ``(E, M)``."""
        if self._states is None:
            raise RuntimeError("environment must be reset before use")
        return self._states.copy()

    @property
    def lam_modes(self) -> np.ndarray:
        """Per-replica arrival-mode indices, shape ``(E,)``."""
        return self._lam_modes.copy()

    @property
    def current_rates(self) -> np.ndarray:
        """Per-replica arrival intensities ``λ_t``, shape ``(E,)``."""
        return self.arrivals.levels[self._lam_modes]

    @property
    def t(self) -> int:
        return self._t

    def empirical_distributions(self) -> np.ndarray:
        """``H_t`` per replica (Eq. 2), shape ``(E, S)``."""
        if self._states is None:
            raise RuntimeError("environment must be reset before use")
        s = self.config.num_queue_states
        offsets = np.arange(self.num_replicas, dtype=np.int64)[:, None] * s
        counts = np.bincount(
            (self._states + offsets).ravel(), minlength=self.num_replicas * s
        ).reshape(self.num_replicas, s)
        return counts.astype(np.float64) / self.config.num_queues

    def reset(self, seed=None) -> np.ndarray:
        """Fresh queue states and per-replica arrival modes; returns ``H_0``."""
        if seed is not None:
            self._rng = as_generator(seed)
        if self._chaos_state is not None:
            # Undo whatever the previous run's events left behind before
            # rebinding, so back-to-back runs see the pristine world.
            self.service_rates = self._chaos_state.base_service_rates.copy()
            if self._chaos_state._pristine_topology is not None:
                self.topology = self._chaos_state._pristine_topology
            self._chaos_state = None
        self._states = np.full(
            (self.num_replicas, self.config.num_queues),
            self.config.initial_state,
            dtype=np.int64,
        )
        self._lam_modes = self.arrivals.sample_initial_modes_batch(
            self.num_replicas, self._rng
        )
        self._t = 0
        if self.chaos is not None and not self.chaos.is_empty:
            self._chaos_state = self.chaos.bind(self)
        return self.empirical_distributions()

    # -- choose stage -----------------------------------------------------
    def _sample(self, d: int) -> np.ndarray:
        """Sample stage: ``d`` queue indices per client, ``(E, N, d)``.

        Uniform over all ``M`` queues with replacement (Eq. 3).
        """
        return draw_uniform_queue_samples(
            self._rng,
            self.num_replicas,
            self.config.num_clients,
            d,
            self.config.num_queues,
        )

    def _routing_views(self) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
        """The ``(weight, states)`` snapshots clients route on this epoch.

        ``weight`` is ``None`` for a single unmixed view; otherwise it
        holds the per-replica population fractions ``(E,)`` of one view
        in a per-packet mixture. ``states`` is ``(E, M)``; its first
        columns are the simulated queues. The default is the live
        states.
        """
        yield None, self._states

    def _encode(self, states: np.ndarray) -> np.ndarray:
        """Observed state per queue that the decision rules index."""
        return states

    def _frozen_rates(self, rules: RulesLike) -> np.ndarray:
        """Frozen arrival rates of the simulated queues, ``(E, M_sim)``.

        Committed choice gives ``M λ_t · count_j / N`` (Eq. 5); per-packet
        randomization gives ``M λ_t · f_j`` with ``f`` the thinned routing
        fractions, mixed over the views by weight. Infinite clients
        replace the draws by the expected rates (Eq. 14-15).
        """
        e, simulated = self._states.shape
        if simulated == 0:
            return np.zeros((e, 0))
        if self.infinite_clients:
            return infinite_client_rates_batched(
                self._encode(self._states), rules, self.current_rates
            )
        m = self.config.num_queues
        n = self.config.num_clients
        lam = self.current_rates[:, None]
        probs = stack_rules(rules, e)
        mixed = None
        for weight, states in self._routing_views():
            observed = self._encode(states)
            sampled = self._sample(probs.ndim - 2)
            if not self.per_packet_randomization:
                counts = self.kernel.committed_counts(
                    observed, sampled, probs, self._rng
                )
                return m * lam * counts[:, :simulated].astype(np.float64) / n
            # Paper remark below Eq. (4): in the experiments every packet
            # re-samples its slot, so the frozen rate thins over the
            # clients' full routing distributions instead of commitments.
            fractions = self.kernel.packet_fractions(
                observed, sampled, probs, n
            )
            if weight is None:
                return m * lam * fractions[:, :simulated]
            if mixed is None:
                mixed = np.zeros((e, m))
            mixed += weight[:, None] * fractions
        return m * lam * mixed[:, :simulated]

    # -- template step ----------------------------------------------------
    def _check_rules(self, rules: RulesLike) -> None:
        first = rules if isinstance(rules, DecisionRule) else rules[0]
        if (
            first.num_states != self.config.num_queue_states
            or first.d != self.config.d
        ):
            raise ValueError(
                f"rule geometry (S={first.num_states}, d={first.d}) does not "
                f"match config (S={self.config.num_queue_states}, "
                f"d={self.config.d})"
            )

    def step(self, rules: RulesLike) -> tuple[np.ndarray, np.ndarray, dict]:
        """Apply one decision rule per replica for one epoch.

        ``rules`` is a single :class:`DecisionRule` (shared by all
        replicas) or a sequence of ``E`` per-replica rules. Returns
        ``(H_next, rewards, info)`` where ``H_next`` is ``(E, S)``,
        ``rewards = -drop_penalty * D_t`` is ``(E,)`` and the info arrays
        are per replica.
        """
        if self._states is None:
            raise RuntimeError("environment must be reset before use")
        self._check_rules(rules)
        chaos = self._chaos_state
        if chaos is not None:
            # Degradation events anchored at this epoch fire before the
            # dispatchers look at the world: a queue failing at t is
            # already gone when epoch t's traffic routes. The chaos
            # layer consumes no random draws, so the streams below are
            # those of the undisturbed run's layout.
            event_drops, rates_changed = chaos.begin_epoch(self, self._t)
        rates = self._frozen_rates(rules)
        served_rates = rates
        blackholed = None
        if chaos is not None:
            # Dispatchers are not told about outages — they route by the
            # (possibly stale) snapshots, and arrival mass sent to an
            # inactive queue is lost. Masking after the routing draw
            # keeps every draw shape identical across backends.
            served_rates, blackholed = chaos.mask_rates(
                rates, self.config.delta_t
            )
        new_states, drops = self.kernel.serve_epoch(
            self._states,
            served_rates,
            self.service_rates,
            self.config.delta_t,
            self.config.buffer_size,
            self._rng,
        )
        kernel_drops = drops.sum(axis=1)
        total_drops = kernel_drops
        self._states = new_states
        self._lam_modes = self.arrivals.step_modes_batch(
            self._lam_modes, self._rng
        )
        self._t += 1
        info = {
            "arrival_rates": rates,
            "t": self._t,
        }
        if chaos is not None:
            chaos_drops = event_drops.copy()
            if blackholed is not None:
                chaos_drops += blackholed
            total_drops = kernel_drops + chaos_drops
            info["drops_kernel"] = kernel_drops
            info["chaos_drops"] = chaos_drops
            info["chaos_event_drops"] = event_drops
            info["chaos_blackholed"] = (
                blackholed
                if blackholed is not None
                else np.zeros(self.num_replicas)
            )
            info["chaos_active"] = chaos.active.copy()
            if rates_changed:
                info["chaos_rates_changed"] = True
        per_queue_drops = total_drops / self.config.num_queues
        info["drops_total"] = total_drops
        info["drops_per_queue"] = per_queue_drops
        rewards = -self.config.drop_penalty * per_queue_drops
        return self.empirical_distributions(), rewards, info

    def step_with_policy(
        self, policy: "UpperLevelPolicy"
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Algorithm 1 lines 8-19 for every replica: compute ``H_t``,
        query the policy per replica, apply the resulting rules.

        Stationary policies are queried once; others go through
        ``policy.decision_rules_batch`` (one batched forward pass for
        neural policies, a per-replica loop otherwise).
        """
        hists = self.empirical_distributions()
        if policy.is_stationary():
            rules: RulesLike = policy.decision_rule(
                hists[0], int(self._lam_modes[0]), self._rng
            )
        else:
            rules = policy.decision_rules_batch(
                hists, self._lam_modes, self._rng
            )
        return self.step(rules)


class BatchedFiniteSystemEnv(_BatchedQueueSystemBase):
    """``E`` replicas of the ``N``-client, ``M``-queue system.

    Every epoch, each replica's ``N`` clients sample ``d`` queues, commit
    a choice via that replica's decision rule, and queue ``j`` receives
    Poisson arrivals at the frozen rate ``λ_j = M λ_t · count_j / N``
    (Eq. 5) for ``Δt`` time units; all replicas advance in one batched
    kernel call.
    """


class BatchedInfiniteClientEnv(_BatchedQueueSystemBase):
    """``E`` replicas of the ``N → ∞`` system of Section 2.2.

    Client randomness averages out (conditional LLN): queue ``j`` of
    replica ``e`` receives the deterministic frozen rate
    ``λ_j = λ_t(H^e_t, z_j)`` (Eq. 14-15). Queue-side randomness remains
    and is simulated batched.
    """

    infinite_clients = True


@dataclass
class BatchedEpisodeResult:
    """Summary of ``E`` lock-step finite-system evaluation episodes."""

    total_drops_per_queue: np.ndarray  # (E,)
    per_epoch_drops: np.ndarray  # (E, T)
    num_epochs: int
    empirical_distributions: np.ndarray | None = None  # (E, T+1, S)
    extras: dict = field(default_factory=dict)

    @property
    def num_replicas(self) -> int:
        return int(self.total_drops_per_queue.size)

    @property
    def mean_total_drops(self) -> float:
        return float(self.total_drops_per_queue.mean())


def run_episodes_batched(
    env: _BatchedQueueSystemBase,
    policy: "UpperLevelPolicy",
    num_epochs: int | None = None,
    seed=None,
    record_distributions: bool = False,
) -> BatchedEpisodeResult:
    """Run Algorithm 1 for ``num_epochs`` epochs in all replicas at once.

    Returns the cumulative per-queue packet drops of every replica (the
    quantity on the y-axes of Figures 4-6) and the per-epoch series.
    """
    steps = (
        int(num_epochs)
        if num_epochs is not None
        else env.config.resolved_eval_length()
    )
    if steps < 1:
        raise ValueError("num_epochs must be >= 1")
    env.reset(seed)
    e = env.num_replicas
    drops = np.empty((e, steps))
    dists = None
    if record_distributions:
        # Width follows the environment, not the config: heterogeneous
        # envs distribute over the Z x C observed states, not Z.
        initial = env.empirical_distributions()
        dists = np.empty((e, steps + 1, initial.shape[1]))
        dists[:, 0] = initial
    for t in range(steps):
        _, _, info = env.step_with_policy(policy)
        drops[:, t] = info["drops_per_queue"]
        if dists is not None:
            dists[:, t + 1] = env.empirical_distributions()
    return BatchedEpisodeResult(
        total_drops_per_queue=drops.sum(axis=1),
        per_epoch_drops=drops,
        num_epochs=steps,
        empirical_distributions=dists,
    )
