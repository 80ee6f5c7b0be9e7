"""Pluggable simulation backends for the batched epoch hot path.

Every batched environment advances one decision epoch through an
:class:`~repro.queueing.backends.protocol.EpochKernel` — the
sample-choose-serve contract extracted from the four batched
environment families. Two kernels ship built in:

* ``"numpy"`` — the vectorized reference implementation (always
  available; the bit-identity point of truth);
* ``"numba"`` — JIT-compiled fused loops with host-side RNG, bit
  identical to the reference and ≥5× faster at bench scale; falls back
  to ``"numpy"`` with a ``RuntimeWarning`` when numba is not installed.

Select a backend per environment (``backend="numba"``), per sweep,
scenario or stream run (``context=ExecutionContext(sim_backend="numba")``),
or on the CLI (``--sim-backend numba``); ``"auto"`` picks
the fastest backend runnable on the host. The conformance harness that
gates all of this lives in
:mod:`repro.queueing.backends.conformance`.
"""

from repro.queueing.backends.protocol import (
    EpochKernel,
    draw_uniform_queue_samples,
)
from repro.queueing.backends.registry import (
    BackendSpec,
    available_backends,
    get_backend,
    preserves_rng_contract,
    register_backend,
    runnable_backends,
)

__all__ = [
    "EpochKernel",
    "draw_uniform_queue_samples",
    "BackendSpec",
    "available_backends",
    "get_backend",
    "preserves_rng_contract",
    "register_backend",
    "runnable_backends",
]
