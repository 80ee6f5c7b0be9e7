"""Event-driven job-level Gillespie simulator (validation substrate).

The frozen-rate epoch model of :mod:`repro.queueing.queue_ctmc` treats
each queue's epoch as an independent birth-death chain. This module
simulates the *same* epoch at the individual-job level with a single
global clock: jobs arrive in one system-wide Poisson stream of rate
``M·λ_t``, each job lands on a uniformly random client and is forwarded
to that client's committed queue (or to a freshly sampled slot when
per-packet randomization is enabled, cf. the remark below Eq. 4);
services complete one at a time at the busy queues. By Poisson thinning
and superposition the two simulators agree *in distribution* — the
integration tests check exactly that, which guards both implementations
against modelling drift.
"""

from __future__ import annotations

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.utils.rng import as_generator

__all__ = ["simulate_epoch_event_driven"]


def simulate_epoch_event_driven(
    states: np.ndarray,
    committed: np.ndarray,
    lam: float,
    service_rates: np.ndarray | float,
    delta_t: float,
    buffer_size: int,
    rng=None,
    sampled: np.ndarray | None = None,
    rule: DecisionRule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one epoch event by event (single global clock).

    Parameters
    ----------
    states : ndarray
        Epoch-start queue states, shape ``(M,)``, entries in
        ``[0, buffer_size]``.
    committed : ndarray
        Per-client committed queue index, shape ``(N,)`` — one replica
        row of :func:`repro.queueing.clients.sample_client_choices_batched`.
    lam : float
        Per-queue arrival intensity ``λ_t`` (system rate is ``M λ_t``).
    service_rates : ndarray or float
        Exponential service rate per queue (scalars broadcast); must be
        positive.
    delta_t : float
        Epoch length: the simulated time span.
    buffer_size : int
        Queue capacity ``B``; arrivals at a full queue are dropped.
    rng : optional
        Seed or :class:`numpy.random.Generator` driving the event
        clock.
    sampled, rule : ndarray, DecisionRule, optional
        When both are given, per-packet randomization is used: each
        arriving packet re-samples its slot ``u ~ h(·|z̄_i)`` from the
        client's epoch-start observation instead of using the committed
        choice. ``sampled`` is the ``(N, d)`` matrix of sampled queues.

    Returns
    -------
    (ndarray, ndarray)
        ``(new_states, drops)``: epoch-end states and dropped-packet
        counts, each shape ``(M,)``.

    Raises
    ------
    ValueError
        On out-of-range states/indices, non-positive rates or epoch
        length, or a half-specified per-packet mode.
    """
    rng = as_generator(rng)
    states = np.asarray(states)
    committed = np.asarray(committed)
    m = states.size
    n = committed.size
    if states.min(initial=0) < 0 or states.max(initial=0) > buffer_size:
        raise ValueError("states out of range")
    if committed.min(initial=0) < 0 or committed.max(initial=0) >= m:
        raise ValueError("committed queue indices out of range")
    if lam < 0 or delta_t <= 0:
        raise ValueError("invalid lam or delta_t")
    per_packet = sampled is not None or rule is not None
    if per_packet and (sampled is None or rule is None):
        raise ValueError("per-packet mode needs both `sampled` and `rule`")
    if per_packet and sampled.shape[0] != n:
        raise ValueError("sampled must have one row per client")
    service = np.broadcast_to(
        np.asarray(service_rates, dtype=np.float64), (m,)
    ).copy()
    if service.min() <= 0:
        raise ValueError("service rates must be > 0")
    # Epoch-start snapshot used for per-packet routing decisions: clients
    # only ever see the synchronously broadcast states.
    snapshot = states.copy()

    z = states.astype(np.int64).copy()
    drops = np.zeros(m, dtype=np.int64)
    arrival_rate_total = m * lam
    t = 0.0
    while True:
        busy_service = float(service[z > 0].sum())
        total_rate = arrival_rate_total + busy_service
        if total_rate <= 0:
            break
        t += rng.exponential(1.0 / total_rate)
        if t > delta_t:
            break
        if rng.random() < arrival_rate_total / total_rate:
            client = int(rng.integers(n))
            if per_packet:
                zbar = snapshot[sampled[client]]
                slot = int(rule.sample_actions(zbar[None, :], rng)[0])
                queue = int(sampled[client, slot])
            else:
                queue = int(committed[client])
            if z[queue] >= buffer_size:
                drops[queue] += 1
            else:
                z[queue] += 1
        else:
            busy = np.flatnonzero(z > 0)
            weights = service[busy]
            queue = int(rng.choice(busy, p=weights / weights.sum()))
            z[queue] -= 1
    return z, drops
