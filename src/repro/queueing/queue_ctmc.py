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
generator, and the joint law of next state and drops against a
uniformization series.

:func:`simulate_queues_epoch_batched` advances ``E`` independent
``M``-queue replicas at once (queue states shaped ``(E, M)``; a single
system is the ``E = 1`` case), which is what the batched environments of
:mod:`repro.queueing.batched_env` build on. It runs in event rounds.
The cells are sorted by event count once per epoch, busiest first, so
the cells with more than ``k`` events are a prefix of that order, and
round ``k`` draws one uniform for each of them alone — the RNG-draw
contract of :mod:`repro.queueing.backends.protocol`. The rounds together
draw one uniform and touch one cell per event.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["simulate_queues_epoch_batched", "validate_epoch_inputs"]


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
    ``states`` left in its input (integer) dtype and the rates broadcast
    to ``(E, M)`` float64 arrays.
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.dtype.kind not in "iu":
        raise ValueError(
            "states must be a 2-D (replicas, queues) integer array, got "
            f"{states.ndim}-D {states.dtype}"
        )
    if states.min(initial=0) < 0 or states.max(initial=0) > buffer_size:
        raise ValueError(f"states must lie in [0, {buffer_size}]")
    e, m = states.shape
    arrival = np.asarray(arrival_rates, dtype=np.float64)
    if arrival.shape != (e, m):
        raise ValueError(f"arrival_rates must have shape ({e}, {m})")
    if not np.isfinite(arrival).all():
        raise ValueError("arrival_rates must be finite")
    if arrival.min(initial=0.0) < 0:
        raise ValueError("arrival rates must be >= 0")
    service = np.broadcast_to(
        np.asarray(service_rates, dtype=np.float64), (e, m)
    ).copy()
    if not np.isfinite(service).all():
        raise ValueError("service_rates must be finite")
    if service.min(initial=np.inf) <= 0:
        raise ValueError("service rates must be > 0")
    if not (np.isfinite(delta_t) and delta_t > 0):
        raise ValueError(f"delta_t must be finite and > 0, got {delta_t}")
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

    Draws the event counts with one ``rng.poisson`` call, then one
    uniform per event (RNG-contract items *c* and *d*): round ``k``
    draws one for each cell with more than ``k`` events, busiest cell
    first. Transient memory is ``O(E·M)`` whatever the event counts
    are.

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
    ``(new_states, drops)`` — both ``(E, M)`` int64 arrays;
    ``drops[e, j]`` counts packets that arrived at queue ``j`` of replica
    ``e`` while it was full.
    """
    rng = as_generator(rng)
    states, arrival, service = validate_epoch_inputs(
        states, arrival_rates, service_rates, delta_t, buffer_size
    )
    total_rate = arrival + service
    order, busy = _busiest_first(rng.poisson(total_rate * delta_t).ravel())
    z = states.ravel().take(order).astype(np.int64, copy=False)
    drops = _event_rounds(
        z,
        (arrival / total_rate).ravel().take(order),
        busy,
        buffer_size,
        rng,
    )
    new_states = np.empty_like(z)
    new_states[order] = z
    new_drops = np.empty_like(drops)
    new_drops[order] = drops
    return new_states.reshape(states.shape), new_drops.reshape(states.shape)


def _busiest_first(num_events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells in order of decreasing event count, and the busy counts.

    Returns ``(order, busy)``: the ``busy[k]`` cells with more than ``k``
    events are ``order[:busy[k]]``, and ``len(busy)`` is the largest
    event count.
    """
    max_events = int(num_events.max(initial=0))
    # A stable sort on the narrowest unsigned key is a radix sort.
    key = (max_events - num_events).astype(np.min_scalar_type(max_events))
    order = np.argsort(key, kind="stable")
    busy = num_events.size - np.cumsum(np.bincount(num_events))
    return order, busy[:max_events]


def _event_rounds(
    z: np.ndarray,
    p_arrival: np.ndarray,
    busy: np.ndarray,
    buffer_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Play the event rounds of cells sorted busiest first.

    ``z`` and ``p_arrival`` are in the sorted order of
    :func:`_busiest_first`. Round ``k`` draws one uniform for each of
    the ``busy[k]`` cells still having events, in that order
    (RNG-contract item *d*), and moves each of them by one event.
    Updates ``z`` in place and returns the sorted drop counts. The round
    buffers are freed on return, before the caller allocates its
    results.
    """
    size = z.size
    drops = np.zeros(size, dtype=np.int64)
    uniforms = np.empty(size)
    is_arrival = np.empty(size, dtype=bool)
    flag = np.empty(size, dtype=bool)
    step = np.empty(size, dtype=bool)
    for c in busy:
        z_k, drops_k, arrival_k, flag_k, step_k = (
            z[:c], drops[:c], is_arrival[:c], flag[:c], step[:c]
        )
        u_k = rng.random(out=uniforms[:c])
        np.less(u_k, p_arrival[:c], out=arrival_k)
        np.greater_equal(z_k, buffer_size, out=flag_k)
        drops_k += np.logical_and(arrival_k, flag_k, out=step_k)
        z_k += np.greater(arrival_k, flag_k, out=step_k)
        # A departing cell skipped the arrival update, so z > 0 here
        # tests its state before the event.
        np.greater(z_k, 0, out=flag_k)
        z_k -= np.greater(flag_k, arrival_k, out=step_k)
    return drops
