"""Numba-compiled epoch kernel: fused per-cell loops, host-side RNG.

The compiled kernel keeps every random draw on the host
:class:`numpy.random.Generator` in the canonical order of
:mod:`repro.queueing.backends.protocol` and compiles only the
deterministic compute between draws. Because numba (without fastmath,
which is never enabled here) preserves exact IEEE-754 double semantics
and the loops below replicate the reference reductions in the same
order, the kernel is **bit-identical** to the NumPy backend — a claim
enforced by golden traces and the conformance suite, not just asserted.

What the fusion buys (see ``docs/scaling.md`` for measurements):

* the serve stage visits each queue cell once and performs its
  ``num_events[e, m]`` events in one compiled loop, where the NumPy
  kernel, which also updates only the cells with events left, pays a
  handful of array passes per event round;
* the per-packet choose stage walks clients in one pass with no
  ``(E, N, d)`` gather/one-hot temporaries.

Committed routing needs no compiled loop: the environments draw its
counts with one host-side multinomial
(:func:`repro.queueing.clients.committed_counts_multinomial`), and
:meth:`NumbaEpochKernel.committed_counts` is the shared NumPy reference.

The one buffer the serve stage still allocates is the pre-drawn block
of ``Σ num_events`` event uniforms. The host sorts the cells busiest
first with the NumPy kernel's own :func:`_busiest_first`, so both
kernels share one order, and draws the block in one call. Round ``k``
of the reference kernel draws one uniform for each cell with more than
``k`` events; the rounds are consecutive slices of the block, because
NumPy fills uniform doubles sequentially. The loop therefore reads the
``k``-th event uniform of the rank-``r`` cell at ``offsets[k] + r``,
where ``offsets`` is the exclusive cumulative sum of the round sizes.

When numba is not installed this module still imports (the kernels stay
plain Python — used by the conformance tests to pin the algorithm), but
the registry falls back to the NumPy kernel with a ``RuntimeWarning``
instead of handing out an uncompiled Python-loop kernel.
"""

from __future__ import annotations

import numpy as np

from repro.queueing.clients import committed_counts_from_samples
from repro.queueing.queue_ctmc import _busiest_first, validate_epoch_inputs

__all__ = ["NUMBA_AVAILABLE", "NumbaEpochKernel", "numba_available"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - trivial
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-op stand-in so the kernels below stay importable/testable."""

        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def numba_available() -> bool:
    """Whether the compiled backend can actually JIT on this host."""
    return NUMBA_AVAILABLE


def _rule_tables(probs: np.ndarray) -> np.ndarray:
    """Flatten a stacked rule table to ``(R, S**d, d)`` with ``R ∈ {1, E}``.

    ``R = 1`` is the stationary shared-rule fast path (zero replica
    stride — no copy beyond the reshape); kernels index replica ``e``
    with ``table[e % R]``.
    """
    s = probs.shape[1]
    d = probs.ndim - 2
    if probs.strides[0] == 0:
        return np.ascontiguousarray(probs[0]).reshape(1, s**d, d)
    return np.ascontiguousarray(probs).reshape(probs.shape[0], s**d, d)


@njit(cache=True)
def _packet_fractions_loop(observed, sampled, table, num_states, fractions):
    num_replicas, num_clients, d = sampled.shape
    num_tables = table.shape[0]
    for e in range(num_replicas):
        rows = table[e % num_tables]
        for n in range(num_clients):
            flat = observed[e, sampled[e, n, 0]]
            for k in range(1, d):
                flat = flat * num_states + observed[e, sampled[e, n, k]]
            # (e, n, k)-ordered accumulation — the add order of
            # np.bincount(flat, weights=rows.ravel()).
            for k in range(d):
                fractions[e, sampled[e, n, k]] += rows[flat, k]


@njit(cache=True)
def _serve_epoch_loop(
    states,
    p_arrival,
    num_events,
    order,
    uniforms,
    offsets,
    buffer_size,
    new_states,
    drops,
):
    for r in range(order.size):
        cell = order[r]
        z = states[cell]
        dropped = 0
        p = p_arrival[cell]
        for k in range(num_events[cell]):
            if uniforms[offsets[k] + r] < p:
                if z >= buffer_size:
                    dropped += 1
                else:
                    z += 1
            elif z > 0:
                z -= 1
        new_states[cell] = z
        drops[cell] = dropped


class NumbaEpochKernel:
    """JIT-compiled :class:`~repro.queueing.backends.protocol.EpochKernel`.

    Parameters
    ----------
    require_numba : bool
        When true (the registry default), refuse to construct without a
        working numba import — plain-Python execution of the loops above
        would be drastically slower than the NumPy kernel. The
        conformance tests pass ``False`` to pin the loop *algorithm*
        against the reference backend even on hosts without numba.
    """

    name = "numba"
    compiled = True
    preserves_rng_contract = True

    def __init__(self, require_numba: bool = True) -> None:
        if require_numba and not NUMBA_AVAILABLE:
            raise ModuleNotFoundError(
                "the 'numba' backend needs the numba package "
                "(pip install 'mfc-load-balancing-repro[compiled]')"
            )

    def committed_counts(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # The per-client reference stage only: the environments draw
        # committed counts from their multinomial law on the host.
        return committed_counts_from_samples(observed, sampled, probs, rng)

    def packet_fractions(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        num_clients: int,
    ) -> np.ndarray:
        e, m = observed.shape
        fractions = np.zeros((e, m), dtype=np.float64)
        _packet_fractions_loop(
            np.ascontiguousarray(observed, dtype=np.int64),
            np.ascontiguousarray(sampled, dtype=np.int64),
            _rule_tables(probs),
            np.int64(probs.shape[1]),
            fractions,
        )
        return fractions / num_clients

    def serve_epoch(
        self,
        states: np.ndarray,
        arrival_rates: np.ndarray,
        service_rates: np.ndarray | float,
        delta_t: float,
        buffer_size: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        states, arrival, service = validate_epoch_inputs(
            states, arrival_rates, service_rates, delta_t, buffer_size
        )
        total_rate = arrival + service
        # Contract items (c) and (d): same poisson call as the reference
        # backend, then its rounds' uniforms in one block of Σ events.
        num_events = rng.poisson(total_rate * delta_t).ravel()
        order, busy = _busiest_first(num_events)
        uniforms = rng.random(int(busy.sum()))
        offsets = np.cumsum(busy) - busy
        new_states = np.empty(states.shape, dtype=np.int64)
        drops = np.empty(states.shape, dtype=np.int64)
        _serve_epoch_loop(
            states.ravel().astype(np.int64),
            (arrival / total_rate).ravel(),
            num_events.astype(np.int64),
            order,
            uniforms,
            offsets,
            np.int64(buffer_size),
            new_states.ravel(),
            drops.ravel(),
        )
        return new_states, drops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __reduce__(self):
        from repro.queueing.backends.registry import get_backend

        return (get_backend, (self.name,))
