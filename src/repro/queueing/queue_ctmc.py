"""Exact stochastic simulation of the per-queue epoch CTMCs (vectorized).

Within a decision epoch each queue ``j`` is an independent birth-death
chain with *frozen* arrival rate ``λ_j`` and service rate ``α_j``
(paper Algorithm 1, line 16): arrivals occur at rate ``λ_j`` in every
state (an arrival at the buffer limit ``B`` is dropped), departures at
rate ``α_j`` in every state (a departure at ``0`` is a no-op). The total
event rate ``R_j = λ_j + α_j`` is therefore state-independent, so the
number of events in ``[0, Δt]`` is ``Poisson(R_j Δt)`` and each event is
independently an arrival with probability ``λ_j / R_j`` — the classic
uniformization construction, which we exploit to simulate all queues in
lock-step NumPy passes instead of one Gillespie loop per queue. The
construction is *exact*, not an approximation; the test suite verifies
the resulting transition law against the matrix exponential of the
generator.

The lock-step pass generalizes for free from one ``M``-queue system to
``E`` independent replicas (queue states shaped ``(E, M)``):
:func:`simulate_queues_epoch_batched` advances all ``E·M`` queues with
the same handful of array operations per event round, which is what the
batched environments of :mod:`repro.queueing.batched_env` build on; a
single system is the ``E = 1`` case.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "simulate_queues_epoch_batched",
    "simulate_queue_trajectory",
    "validate_epoch_inputs",
]


def validate_epoch_inputs(
    states: np.ndarray,
    arrival_rates: np.ndarray,
    service_rates: np.ndarray | float,
    delta_t: float,
    buffer_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize and validate one epoch's serve-stage inputs.

    Shared by every serve-stage backend (see
    :mod:`repro.queueing.backends`) so NumPy and compiled kernels reject
    exactly the same inputs. Returns ``(states, arrival, service)`` with
    ``states`` left in its input dtype and the rates broadcast to
    ``(E, M)`` float64 arrays.
    """
    states = np.asarray(states)
    if states.ndim != 2:
        raise ValueError("states must be a 2-D (replicas, queues) integer array")
    if states.min(initial=0) < 0 or states.max(initial=0) > buffer_size:
        raise ValueError(f"states must lie in [0, {buffer_size}]")
    e, m = states.shape
    arrival = np.asarray(arrival_rates, dtype=np.float64)
    if arrival.shape != (e, m):
        raise ValueError(f"arrival_rates must have shape ({e}, {m})")
    if arrival.min(initial=0.0) < 0:
        raise ValueError("arrival rates must be >= 0")
    service = np.broadcast_to(
        np.asarray(service_rates, dtype=np.float64), (e, m)
    ).copy()
    if service.min(initial=np.inf) <= 0:
        raise ValueError("service rates must be > 0")
    if delta_t <= 0:
        raise ValueError(f"delta_t must be > 0, got {delta_t}")
    return states, arrival, service


def simulate_queues_epoch_batched(
    states: np.ndarray,
    arrival_rates: np.ndarray,
    service_rates: np.ndarray | float,
    delta_t: float,
    buffer_size: int,
    rng=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance ``E`` independent ``M``-queue replicas by one epoch.

    Parameters
    ----------
    states:
        Integer array ``(E, M)`` of current queue fillings in
        ``{0, ..., buffer_size}``; row ``e`` is replica ``e``.
    arrival_rates:
        Per-queue frozen arrival rates ``λ_{e,j} >= 0``, shape ``(E, M)``.
    service_rates:
        Scalar, ``(M,)`` or ``(E, M)`` service rates ``α_j > 0``.
    delta_t:
        Epoch length ``Δt > 0``.

    Returns
    -------
    ``(new_states, drops)`` — both ``(E, M)`` integer arrays;
    ``drops[e, j]`` counts packets that arrived at queue ``j`` of replica
    ``e`` while it was full.
    """
    rng = as_generator(rng)
    states, arrival, service = validate_epoch_inputs(
        states, arrival_rates, service_rates, delta_t, buffer_size
    )
    e, m = states.shape

    total_rate = arrival + service
    num_events = rng.poisson(total_rate * delta_t)
    p_arrival = arrival / total_rate

    z = states.astype(np.int64).copy()
    drops = np.zeros((e, m), dtype=np.int64)
    max_events = int(num_events.max(initial=0))
    for k in range(max_events):
        active = num_events > k
        is_arrival = rng.random((e, m)) < p_arrival
        arrivals = active & is_arrival
        departures = active & ~is_arrival
        drops += arrivals & (z >= buffer_size)
        z += arrivals & (z < buffer_size)
        z -= departures & (z > 0)
    return z, drops


def simulate_queue_trajectory(
    initial_state: int,
    arrival_rate: float,
    service_rate: float,
    horizon: float,
    buffer_size: int,
    rng=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-queue event-time trajectory (Gillespie; diagnostics/tests).

    Returns ``(event_times, states_after_events, drops)`` where the state
    arrays include the initial state at time 0. Used to cross-check the
    lock-step simulator and for time-resolved examples.
    """
    rng = as_generator(rng)
    if not 0 <= initial_state <= buffer_size:
        raise ValueError("initial_state out of range")
    if arrival_rate < 0 or service_rate <= 0 or horizon <= 0:
        raise ValueError("invalid rates or horizon")
    total = arrival_rate + service_rate
    p_arrival = arrival_rate / total
    times = [0.0]
    states = [initial_state]
    drops = 0
    t = 0.0
    z = initial_state
    while True:
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        if rng.random() < p_arrival:
            if z >= buffer_size:
                drops += 1
            else:
                z += 1
        else:
            if z > 0:
                z -= 1
        times.append(t)
        states.append(z)
    return np.asarray(times), np.asarray(states), drops
