"""Local (per-node) mean-field propagator for sparse topologies.

The paper's mean-field limit replaces the ``M`` queues by *one* state
distribution ``ν_t`` because every dispatcher samples every queue — the
system is exchangeable. On a sparse access graph exchangeability breaks:
queue ``j``'s load depends on *which* dispatchers reach it. Following
the localized mean-field construction of arXiv:2312.12973, this module
tracks one distribution ``ν_j ∈ P(Z)`` per queue and couples them
through the adjacency structure:

* dispatcher node ``i`` carries arrival intensity
  ``λ_i = M λ_t / K`` (clients are spread uniformly over the ``K``
  nodes) and perceives the *neighborhood mixture*
  ``ν̄_i = (1/deg) Σ_{j ∈ n(i)} ν_j``;
* treating neighborhood queue states as independent with marginals
  ``ν_j`` (the local chaos assumption), the rate node ``i`` sends to a
  neighbor in state ``z`` is ``(λ_i / deg) · g_i(z)`` with
  ``g_i = per_state_arrival_rates(ν̄_i, h, 1)`` — the paper's Eq. (22)
  contraction evaluated at the local mixture;
* queue ``j`` then freezes the rate
  ``λ_j(z) = Σ_{i : j ∈ n(i)} (λ_i / deg_i) g_i(z)`` for the epoch and
  propagates through the exact extended-generator matrix exponential of
  :mod:`repro.meanfield.discretization`, one birth-death CTMC per queue
  (one :func:`repro.meanfield.discretization.propagate_laws` call over
  the ``(M, S)`` laws).

The construction conserves arrival mass exactly
(``Σ_j Σ_z ν_j(z) λ_j(z) = M λ_t``, tested) and *reduces to the global
propagator on the full mesh*: with one dispatcher seeing all queues and
a shared initial distribution, every ``ν_j`` follows exactly the
``epoch_update`` trajectory of the dense model (tested).

Heterogeneous capacities ride along: per-queue service rates feed the
per-queue CTMCs, and an optional server-class vector lets decision rules
operate on the ``Z × C`` observed states of
:mod:`repro.queueing.heterogeneous` (SED(d) on sparse graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import (
    per_state_arrival_rates,
    propagate_laws,
)
from repro.queueing.topology import TopologySpec

if TYPE_CHECKING:  # import cycle: policies build on top of the mean-field model
    from repro.policies.base import UpperLevelPolicy

__all__ = [
    "observed_distributions",
    "neighborhood_mixtures",
    "local_arrival_rates",
    "local_epoch_update",
    "LocalMeanFieldTrajectory",
    "local_mean_field_trajectory",
]


def observed_distributions(
    nus: np.ndarray, classes: np.ndarray | None, num_classes: int = 1
) -> np.ndarray:
    """Lift per-queue laws on ``Z`` to the ``Z × C`` observed states.

    Queue ``j`` of class ``c_j`` contributes its mass at filling ``z`` to
    observed state ``z·C + c_j`` (the encoding of
    :class:`repro.queueing.heterogeneous.ServerClassSpec`). With
    ``classes=None`` the input is returned unchanged.
    """
    nus = np.asarray(nus, dtype=np.float64)
    if classes is None:
        return nus
    m, s = nus.shape
    classes = np.asarray(classes)
    if classes.shape != (m,):
        raise ValueError(f"classes must have shape ({m},)")
    obs = np.zeros((m, s * num_classes))
    cols = np.arange(s)[None, :] * num_classes + classes[:, None]
    np.put_along_axis(obs, cols, nus, axis=1)
    return obs


def neighborhood_mixtures(
    obs_nus: np.ndarray, topology: TopologySpec
) -> np.ndarray:
    """Per-dispatcher mixtures ``ν̄_i``, shape ``(K, S_obs)``.

    ``ν̄_i`` is the law of one uniformly sampled neighbor's observed
    state — what node ``i``'s clients actually see.
    """
    obs_nus = np.asarray(obs_nus, dtype=np.float64)
    if obs_nus.ndim != 2 or obs_nus.shape[0] != topology.num_queues:
        raise ValueError(
            f"obs_nus must be (M={topology.num_queues}, S_obs), "
            f"got {obs_nus.shape}"
        )
    return obs_nus[topology.neighbors].mean(axis=1)


def local_arrival_rates(
    nus: np.ndarray,
    topology: TopologySpec,
    rule: DecisionRule,
    lam: float,
    classes: np.ndarray | None = None,
    num_classes: int = 1,
) -> np.ndarray:
    """Frozen per-(queue, own-state) arrival rates ``λ_j(z)``, ``(M, S)``.

    The local analogue of Eq. (22): queue ``j`` in state ``z`` receives
    ``Σ_{i : j ∈ n(i)} (λ_i / deg) g_i(o_j(z))`` where ``g_i`` is the
    per-state rate contraction at node ``i``'s neighborhood mixture and
    ``o_j(z)`` the observed state of queue ``j`` at filling ``z``.
    Satisfies the mass identity ``Σ_j ν_j · λ_j = M λ`` exactly.
    """
    nus = np.asarray(nus, dtype=np.float64)
    if lam < 0:
        raise ValueError(f"arrival intensity must be >= 0, got {lam}")
    m, s = nus.shape
    obs = observed_distributions(nus, classes, num_classes)
    mixtures = neighborhood_mixtures(obs, topology)
    # Per-node contraction g_i on observed states: one Eq. 22 call over
    # the K mixtures.
    g = per_state_arrival_rates(mixtures, rule, 1.0)
    # Each dispatcher injects M·lam/K, split uniformly over its samples.
    weight = (m * lam / topology.num_dispatchers) / topology.degree
    targets = topology.neighbors.ravel()
    edge_vals = np.repeat(weight * g, topology.degree, axis=0)
    if classes is not None:
        cols = (
            np.arange(s)[None, :] * num_classes
            + np.asarray(classes)[targets][:, None]
        )
        edge_vals = np.take_along_axis(edge_vals, cols, axis=1)
    rates = np.zeros((m, s))
    np.add.at(rates, targets, edge_vals)
    return rates


def local_epoch_update(
    nus: np.ndarray,
    topology: TopologySpec,
    rule: DecisionRule,
    lam: float,
    service_rates: np.ndarray | float,
    delta_t: float,
    classes: np.ndarray | None = None,
    num_classes: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """One exact epoch of the local mean-field dynamics.

    The per-node counterpart of
    :func:`repro.meanfield.discretization.epoch_update`: returns
    ``(nus_next, expected_drops_per_queue)`` shaped ``(M, S)`` / ``(M,)``.
    """
    nus = np.asarray(nus, dtype=np.float64)
    m, _ = nus.shape
    if m != topology.num_queues:
        raise ValueError(
            f"nus covers {m} queues, topology {topology.num_queues}"
        )
    service = np.broadcast_to(
        np.asarray(service_rates, dtype=np.float64), (m,)
    )
    if service.min() <= 0:
        raise ValueError("service rates must be > 0")
    rates = local_arrival_rates(
        nus, topology, rule, lam, classes=classes, num_classes=num_classes
    )
    nus_next, drops, _ = propagate_laws(nus, rates, service, delta_t)
    return nus_next, drops


@dataclass
class LocalMeanFieldTrajectory:
    """Deterministic per-node trajectory on a sparse topology."""

    nus: np.ndarray  # (T+1, M, S) per-queue laws
    drops: np.ndarray  # (T, M) expected per-queue drops per epoch

    @property
    def mean_nus(self) -> np.ndarray:
        """Population-averaged laws, shape ``(T+1, S)`` — comparable to
        the global mean-field trajectory."""
        return self.nus.mean(axis=1)

    @property
    def total_drops_per_queue(self) -> float:
        """Cumulative expected drops averaged over queues (the Figure
        4-6 y-axis quantity in the limit model)."""
        return float(self.drops.sum(axis=0).mean())


def local_mean_field_trajectory(
    topology: TopologySpec,
    policy: "UpperLevelPolicy",
    mode_sequence: np.ndarray,
    arrival_levels: np.ndarray,
    service_rates: np.ndarray | float,
    delta_t: float,
    num_states: int,
    initial_state: int = 0,
    classes: np.ndarray | None = None,
    num_classes: int = 1,
) -> LocalMeanFieldTrajectory:
    """Replay a scripted arrival-mode sequence through the local model.

    The per-node counterpart of
    :func:`repro.meanfield.convergence.mean_field_trajectory`: the
    upper-level policy is queried once per epoch on the *population
    mixture* (what a delayed broadcast would carry) and the emitted rule
    drives every node. MF / JSQ(d) / SED(d) / RND can all be evaluated
    under delay on sparse graphs this way.
    """
    mode_sequence = np.asarray(mode_sequence, dtype=np.intp)
    levels = np.asarray(arrival_levels, dtype=np.float64)
    m = topology.num_queues
    if not 0 <= initial_state < num_states:
        raise ValueError(
            f"initial_state must lie in [0, {num_states - 1}]"
        )
    nus = np.zeros((m, num_states))
    nus[:, initial_state] = 1.0
    t_len = mode_sequence.size
    out_nus = np.empty((t_len + 1, m, num_states))
    out_drops = np.empty((t_len, m))
    out_nus[0] = nus
    for t, mode in enumerate(mode_sequence):
        mixture = observed_distributions(nus, classes, num_classes).mean(
            axis=0
        )
        rule = policy.decision_rule(mixture, int(mode), None)
        nus, drops = local_epoch_update(
            nus,
            topology,
            rule,
            float(levels[mode]),
            service_rates,
            delta_t,
            classes=classes,
            num_classes=num_classes,
        )
        out_nus[t + 1] = nus
        out_drops[t] = drops
    return LocalMeanFieldTrajectory(nus=out_nus, drops=out_drops)
