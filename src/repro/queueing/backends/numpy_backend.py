"""Reference NumPy epoch kernel — the bit-identity point of truth.

The choose stage delegates to the shared sampled-state primitives of
:mod:`repro.queueing.clients` and the serve stage to the vectorized
uniformization pass of :mod:`repro.queueing.queue_ctmc` — exactly the
code paths the environments ran before the backend protocol existed, so
adopting the protocol changed no random stream and no golden trace.
Every other backend is gated against this kernel by the conformance
harness (:mod:`repro.queueing.backends.conformance`). Its
``committed_counts`` is the per-client reference only: environments draw
committed counts with
:func:`repro.queueing.clients.committed_counts_multinomial`.
"""

from __future__ import annotations

import numpy as np

from repro.queueing.clients import (
    committed_counts_from_samples,
    packet_fractions_from_samples,
)
from repro.queueing.queue_ctmc import simulate_queues_epoch_batched

__all__ = ["NumpyEpochKernel"]


class NumpyEpochKernel:
    """Pure-NumPy :class:`~repro.queueing.backends.protocol.EpochKernel`.

    Always available; the fallback target of every optional backend.
    The serve stage runs one array round per event of the busiest
    queue; each round draws uniforms for and updates only the cells
    with events left, so draws and updates cost one cell per event.
    """

    name = "numpy"
    compiled = False
    preserves_rng_contract = True

    def committed_counts(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return committed_counts_from_samples(observed, sampled, probs, rng)

    def packet_fractions(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        num_clients: int,
    ) -> np.ndarray:
        return packet_fractions_from_samples(
            observed, sampled, probs, num_clients
        )

    def serve_epoch(
        self,
        states: np.ndarray,
        arrival_rates: np.ndarray,
        service_rates: np.ndarray | float,
        delta_t: float,
        buffer_size: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        return simulate_queues_epoch_batched(
            states, arrival_rates, service_rates, delta_t, buffer_size, rng
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __reduce__(self):
        # Pickle by registry name: environments holding a kernel cross
        # process boundaries without serializing kernel internals.
        from repro.queueing.backends.registry import get_backend

        return (get_backend, (self.name,))
