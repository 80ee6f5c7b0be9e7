"""Mean-field propagator under stochastic observation delays.

The paper's exact epoch map (:func:`repro.meanfield.discretization.epoch_update`)
assumes every dispatcher routes against the law ``ν_t`` broadcast at the
epoch start — information that is *exactly* ``Δt`` old. This module
extends the propagator to the delay distributions of
:mod:`repro.queueing.delays`: a fraction ``p_k`` of dispatchers holds
the snapshot from ``k`` epochs back, for ``k = 0..K`` (cf. "Mean Field
Queues with Delayed Information", Doldo & Pender, where the fluid drift
is evaluated at a delayed state).

Model
-----
In the limit each queue is an inhomogeneous Markov chain with the
epoch transition matrices ``T_t`` generated by the frozen rates. A
dispatcher of age ``k`` samples queues and ranks them by their state
``k`` epochs ago, so the rate it contributes to a queue is a function
of that queue's *delayed* state ``z_{t-k}``:

    r_k(z') = λ_t(ν_{t-k}, z')        (Eq. 22 evaluated at the delayed law)

The frozen rate of a queue whose *current* state is ``z`` is then closed
to first order by averaging over its delayed state given the current
one (Bayes through the stored epoch propagators ``Φ_k = T_{t-k} ⋯ T_{t-1}``):

    r(z) = Σ_k p_k Σ_{z'} ν_{t-k}(z') Φ_k(z', z) r_k(z') / ν_t(z)

This *delay-mixture closure* is exact when the delay is a point mass at
age 0 (``Φ_0 = I`` collapses the sum to Eq. 22 — the paper's case: with
``K = 0`` the closure returns the Eq. 22 rates themselves, so the
propagator is exactly
:func:`repro.meanfield.discretization.epoch_update`), exact for
state-independent rules (RND), and conserves arrival mass
``Σ_z ν_t(z) r(z) = λ_t`` for every delay distribution. The closure and
the propagator work over leading batch axes, so the same code serves one
law, one law per queue on sparse topologies
(:func:`delayed_local_epoch_update` over :mod:`repro.meanfield.local`)
and one law per replica in the hybrid fleet
(:class:`repro.queueing.hybrid_env.BatchedHybridFleetEnv`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import (
    per_state_arrival_rates,
    propagate_laws,
)
from repro.queueing.delays import DelayModel

if TYPE_CHECKING:
    from repro.policies.base import UpperLevelPolicy
    from repro.queueing.topology import TopologySpec

__all__ = [
    "delayed_arrival_rates",
    "DelayedMeanFieldPropagator",
    "delayed_mean_field_trajectory",
    "delayed_local_epoch_update",
]

#: Laws below this mass use the unconditional filler rate (their weight
#: in the epoch update is zero anyway; the filler only keeps the
#: generator entries finite).
_MASS_EPS = 1e-14


def delayed_arrival_rates(
    history_nus: Sequence[np.ndarray],
    history_phis: Sequence[np.ndarray],
    age_rates: Sequence[np.ndarray],
    pmf: np.ndarray,
) -> np.ndarray:
    """Frozen per-current-state rates under a snapshot-age mixture.

    Every array may carry the same leading batch axes ``...`` (one law
    per queue or per replica).

    Parameters
    ----------
    history_nus : sequence of ndarray
        Laws ``ν_{t-k}`` for ``k = 0..K`` (index = age; entry 0 is the
        current law), each shape ``(..., S)``.
    history_phis : sequence of ndarray
        Multi-epoch propagators ``Φ_k`` mapping the age-``k`` state to
        the current one (``Φ_0`` is the identity), each ``(..., S, S)``.
    age_rates : sequence of ndarray
        Eq. 22 rates ``r_k`` seen by age-``k`` dispatchers, indexed by
        the delayed state, each ``(..., S)``. The caller evaluates them
        at whatever law those dispatchers sample from. Ages with zero
        weight in every batch entry are skipped, so their entry may be
        ``None``.
    pmf : ndarray
        Snapshot-age distribution ``(p_0, ..., p_K)``, shared or
        ``(..., K + 1)``.

    Returns
    -------
    ndarray
        Rates ``r(z)`` indexed by the current state, shape ``(..., S)``,
        satisfying ``Σ_z ν_t(z) r(z) = Σ_k p_k Σ_z ν_{t-k}(z) r_k(z)``
        (up to round-off). With ``K = 0`` they are ``r_0`` itself.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    ages = pmf.shape[-1]
    if min(len(history_nus), len(history_phis), len(age_rates)) < ages:
        raise ValueError(
            f"need {ages} history entries, got {len(history_nus)} laws / "
            f"{len(history_phis)} propagators / {len(age_rates)} age rates"
        )
    if ages == 1:
        return np.asarray(age_rates[0], dtype=np.float64)
    nu_now = np.asarray(history_nus[0], dtype=np.float64)
    numerator = np.zeros(nu_now.shape)
    filler = np.zeros(nu_now.shape[:-1])
    weighted = (pmf > 0.0).reshape(-1, ages).any(axis=0)
    for k in np.flatnonzero(weighted):
        p_k = pmf[..., k]
        nu_k = np.asarray(history_nus[k], dtype=np.float64)
        r_k = np.asarray(age_rates[k], dtype=np.float64)
        # Bayes transport of the age-k rates to current states.
        numerator += p_k[..., None] * np.matmul(
            (nu_k * r_k)[..., None, :], history_phis[k]
        )[..., 0, :]
        filler += p_k * np.matmul(nu_k[..., None, :], r_k[..., None])[..., 0, 0]
    return np.where(
        nu_now > _MASS_EPS,
        numerator / np.maximum(nu_now, _MASS_EPS),
        filler[..., None],
    )


class DelayedMeanFieldPropagator:
    """Stateful exact epoch propagator under a delay mixture.

    Advances laws ``(..., S)`` — one law, or a stack such as one per
    replica — and maintains the rolling history the closure needs: the
    last ``K`` per-epoch transition matrices and ``K + 1`` laws. Before
    ``k`` epochs have elapsed, ages clamp to the oldest available
    snapshot (the system starts synced), matching
    :class:`repro.queueing.delayed_env.BatchedDelayedFiniteEnv`. With
    ``K = 0`` an epoch is exactly
    :func:`repro.meanfield.discretization.epoch_update`.

    Parameters
    ----------
    nu0 : ndarray
        Initial laws ``ν_0``, shape ``(..., S)``.
    max_delay : int
        Largest snapshot age ``K`` the propagator must serve.
    service : float
        Service rate ``α``.
    delta_t : float
        Epoch length (broadcast period) ``Δt``.
    """

    def __init__(
        self, nu0: np.ndarray, max_delay: int, service: float, delta_t: float
    ) -> None:
        nu0 = np.asarray(nu0, dtype=np.float64)
        if nu0.ndim == 0 or nu0.shape[-1] < 2:
            raise ValueError("nu0 must be a law over >= 2 states")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if service <= 0 or delta_t <= 0:
            raise ValueError("service and delta_t must be > 0")
        self.max_delay = int(max_delay)
        self.service = float(service)
        self.delta_t = float(delta_t)
        self.num_states = int(nu0.shape[-1])
        # Newest-first histories: _nus[k] is the age-k law.
        self._nus: deque[np.ndarray] = deque(maxlen=self.max_delay + 1)
        self._epoch_transitions: deque[np.ndarray] = deque(
            maxlen=self.max_delay
        )
        self.restart(nu0)

    def _push(self, nus: np.ndarray) -> None:
        # Stored laws are read-only, so laws() can hand them out uncopied.
        nus.flags.writeable = False
        self._nus.appendleft(nus)

    def restart(self, nu: np.ndarray) -> None:
        """Restart the history at laws ``nu``, synced: every age sees them."""
        nu = np.array(nu, dtype=np.float64)
        if nu.shape[-1:] != (self.num_states,):
            raise ValueError(f"laws must end in {self.num_states} states")
        self._nus.clear()
        self._epoch_transitions.clear()
        self._push(nu)

    @property
    def nu(self) -> np.ndarray:
        """Current laws ``ν_t``, shape ``(..., S)`` (a copy)."""
        return self._nus[0].copy()

    def laws(self, age: int) -> np.ndarray:
        """Age-``age`` laws (clamped to the oldest kept), ``(..., S)``.

        The stored array itself, read-only.
        """
        if not 0 <= age <= self.max_delay:
            raise ValueError(f"age must lie in [0, {self.max_delay}]")
        return self._nus[min(age, len(self._nus) - 1)]

    def _history(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Age-indexed laws and ``Φ_k`` products (ages clamp early on)."""
        nus = [self.laws(k) for k in range(self.max_delay + 1)]
        phis = [np.eye(self.num_states)]
        phi = phis[0]
        # _epoch_transitions[0] is T_{t-1}: left-multiply going back.
        for i in range(self.max_delay):
            if i < len(self._epoch_transitions):
                phi = self._epoch_transitions[i] @ phi
            phis.append(phi)
        return nus, phis

    def frozen_rates(
        self, age_rates: Sequence[np.ndarray], pmf: np.ndarray
    ) -> np.ndarray:
        """Closure rates ``r(z)`` of the current laws, ``(..., S)``.

        ``age_rates[k]`` are the Eq. 22 rates the age-``k`` dispatchers
        apply (see :func:`delayed_arrival_rates`).
        """
        nus, phis = self._history()
        return delayed_arrival_rates(nus, phis, age_rates, pmf)

    def rule_rates(
        self, rule: DecisionRule, lam: float, pmf: np.ndarray
    ) -> np.ndarray:
        """Closure rates of a single law when every age routes with
        ``rule`` against its own delayed law, shape ``(S,)``."""
        pmf = np.asarray(pmf, dtype=np.float64)
        return self.frozen_rates(
            [
                per_state_arrival_rates(self.laws(k), rule, lam)
                if p_k > 0.0
                else None
                for k, p_k in enumerate(pmf)
            ],
            pmf,
        )

    def advance(self, rates: np.ndarray) -> np.ndarray:
        """Propagate one epoch at frozen ``rates``; returns the expected
        drops per queue, shape ``(...)``."""
        nu_next, drops, transitions = propagate_laws(
            self._nus[0], rates, self.service, self.delta_t
        )
        self._push(nu_next)
        self._epoch_transitions.appendleft(transitions)
        return drops

    def step(
        self, rule: DecisionRule, lam: float, pmf: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Advance a single law one epoch under ``rule``; returns
        ``(ν_{t+1}, expected drops)``."""
        drops = self.advance(self.rule_rates(rule, lam, pmf))
        return self.nu, float(drops)


def delayed_mean_field_trajectory(
    config: SystemConfig,
    policy: "UpperLevelPolicy",
    mode_sequence: np.ndarray,
    delay_model: DelayModel,
    regime_sequence: np.ndarray | None = None,
    arrival_levels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic delayed-information MFC trajectory.

    The delay-aware counterpart of
    :func:`repro.meanfield.convergence.mean_field_trajectory`: replays a
    scripted arrival-mode sequence (and, for Markov-modulated delay
    models, a scripted delay-regime sequence — population-wide regimes
    survive the limit as common noise) through the delay-mixture
    propagator.

    Parameters
    ----------
    config : SystemConfig
        System parameters (service rate, ``Δt``, state space).
    policy : UpperLevelPolicy
        Upper-level policy queried on the current law each epoch.
    mode_sequence : ndarray
        Arrival modes to replay, length ``T``.
    delay_model : DelayModel
        Snapshot-age model; each epoch uses the pmf of the scripted
        regime.
    regime_sequence : ndarray, optional
        Delay regimes to replay; defaults to regime 0 throughout.
    arrival_levels : ndarray, optional
        Level table overriding the config's two-level chain.

    Returns
    -------
    (ndarray, ndarray)
        ``(nus, drops)`` shaped ``(T + 1, S)`` / ``(T,)``.
    """
    from repro.queueing.arrivals import MarkovModulatedRate

    mode_sequence = np.asarray(mode_sequence, dtype=np.intp)
    t_len = mode_sequence.size
    if regime_sequence is None:
        regime_sequence = np.zeros(t_len, dtype=np.intp)
    regime_sequence = np.asarray(regime_sequence, dtype=np.intp)
    if regime_sequence.size < t_len:
        raise ValueError("regime_sequence shorter than mode_sequence")
    levels = (
        np.asarray(arrival_levels, dtype=np.float64)
        if arrival_levels is not None
        else np.asarray(
            MarkovModulatedRate.from_config(config).levels, dtype=np.float64
        )
    )
    s = config.num_queue_states
    nu = np.zeros(s)
    nu[config.initial_state] = 1.0
    propagator = DelayedMeanFieldPropagator(
        nu, delay_model.max_delay, config.service_rate, config.delta_t
    )
    nus = np.empty((t_len + 1, s))
    drops = np.empty(t_len)
    nus[0] = nu
    for t, mode in enumerate(mode_sequence):
        rule = policy.decision_rule(propagator.nu, int(mode), None)
        pmf = delay_model.pmf(int(regime_sequence[t]))
        nus[t + 1], drops[t] = propagator.step(
            rule, float(levels[mode]), pmf
        )
    return nus, drops


def delayed_local_epoch_update(
    history_nus: Sequence[np.ndarray],
    history_phis: Sequence[np.ndarray],
    topology: "TopologySpec",
    rule: DecisionRule,
    lam: float,
    service_rates: np.ndarray | float,
    delta_t: float,
    pmf: np.ndarray,
    classes: np.ndarray | None = None,
    num_classes: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One epoch of the *local* mean-field dynamics under a delay mixture.

    The sparse-topology counterpart of
    :class:`DelayedMeanFieldPropagator.step`, applying the same closure
    per queue: age-``k`` rates come from
    :func:`repro.meanfield.local.local_arrival_rates` at the delayed
    per-queue laws, transported to current states through each queue's
    stored propagator product.

    Parameters
    ----------
    history_nus : sequence of ndarray
        Per-queue laws ``ν_{t-k}``, each shape ``(M, S)``; index = age.
    history_phis : sequence of ndarray
        Per-queue propagator products ``Φ_k``, each ``(M, S, S)``
        (``Φ_0`` is the stacked identity).
    topology, rule, lam, service_rates, delta_t, classes, num_classes :
        As in :func:`repro.meanfield.local.local_epoch_update`.
    pmf : ndarray
        Snapshot-age distribution ``(p_0, ..., p_K)``.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        ``(nus_next, expected_drops, epoch_transitions)`` shaped
        ``(M, S)`` / ``(M,)`` / ``(M, S, S)`` — callers append the
        returned transitions to their ``Φ`` history.
    """
    from repro.meanfield.local import local_arrival_rates

    pmf = np.asarray(pmf, dtype=np.float64)
    nus_now = np.asarray(history_nus[0], dtype=np.float64)
    service = np.broadcast_to(
        np.asarray(service_rates, dtype=np.float64), nus_now.shape[:1]
    )
    if service.min() <= 0:
        raise ValueError("service rates must be > 0")
    age_rates = [
        local_arrival_rates(
            nu_k, topology, rule, lam, classes=classes, num_classes=num_classes
        )
        if p_k > 0.0
        else None
        for nu_k, p_k in zip(history_nus, pmf)
    ]
    rates = delayed_arrival_rates(history_nus, history_phis, age_rates, pmf)
    return propagate_laws(nus_now, rates, service, delta_t)
