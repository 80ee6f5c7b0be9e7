"""The epoch-kernel protocol: the contract every simulation backend obeys.

One decision epoch of every batched environment decomposes into three
stages over ``E`` replicas, ``N`` clients and ``d`` samples per client
(paper Algorithm 1, lines 8-19):

1. **sample** — each client draws ``d`` queue indices. Sampling stays
   *environment-specific host code* (dense envs draw uniformly over all
   ``M`` queues, graph envs over per-dispatcher neighborhoods) so that
   a full-mesh graph simulation keeps making the exact ``rng.integers``
   call of the dense system.
2. **choose** — each client looks up its decision-rule row on the
   observed states of its samples and either commits one choice for the
   epoch (:meth:`EpochKernel.committed_counts`) or contributes its full
   routing distribution under per-packet randomization
   (:meth:`EpochKernel.packet_fractions`).
3. **serve** — every queue runs its frozen-rate birth-death chain for
   ``Δt`` time units via uniformization
   (:meth:`EpochKernel.serve_epoch`).

Backends implement the **choose** and **serve** stages; they receive the
sample-stage output as input.

RNG-draw contract
-----------------
All randomness is drawn from the *host-side*
:class:`numpy.random.Generator` in one canonical per-epoch order:

(a) one ``rng.integers(0, high, size=(E, N, d))`` queue-sample draw
    (``high = M`` dense, ``high = degree`` on graphs) — made by the
    environment, per decision-rule application;
(b) one ``rng.random((E, N))`` slot-selection draw inside
    ``committed_counts`` (skipped entirely under per-packet
    randomization, which consumes no stream);
(c) one ``rng.poisson(total_rate · Δt)`` draw of shape ``(E, M)``
    inside ``serve_epoch``;
(d) ``max_events`` rounds of ``rng.random((E, M))`` event-type draws
    inside ``serve_epoch`` — equivalently one ``(max_events, E, M)``
    draw, which yields the identical byte stream because NumPy fills
    uniform doubles sequentially in C order.

A backend that keeps this call sequence — same methods, same argument
shapes, same order — and computes everything between draws with exact
IEEE-754 double semantics (no fast-math reassociation) is **bit
identical** to the NumPy reference backend: same queue trajectories,
same drop counts, same downstream figures. The bundled numba backend is
such a backend. Backends that cannot preserve the sequence (e.g. a
future GPU backend drawing on-device) must declare
``preserves_rng_contract = False`` and are held to the statistical
equivalence bands of :mod:`repro.queueing.backends.conformance`
instead, and the experiment store keys their shards separately (see
:func:`repro.store.keys.shard_key`).

Floating-point contract
-----------------------
Two reductions in the choose stage are order-sensitive and therefore
normative:

* slot selection computes the cdf by *sequential left-to-right
  addition* over the ``d`` slots with the final cumulative value forced
  to exactly ``1.0`` (the round-off guard of the reference
  implementation), then counts strict exceedances of one uniform;
* per-packet accumulation adds each client-slot weight into its queue
  cell in ``(e, n, k)`` row-major order — the accumulation order of
  ``numpy.bincount`` with weights.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["EpochKernel", "draw_uniform_queue_samples"]


@runtime_checkable
class EpochKernel(Protocol):
    """Choose/serve-stage implementation of one decision epoch.

    Implementations are stateless value objects: constructing two
    kernels of the same backend yields interchangeable objects, and
    kernels pickle by name so environments cross process boundaries
    cheaply. Register implementations with
    :func:`repro.queueing.backends.register_backend` to expose them to
    environments, the experiment runner and the CLI — registration also
    enrolls the backend in the conformance gauntlet of
    ``tests/test_backend_conformance.py``.

    Attributes
    ----------
    name : str
        Registry name (``"numpy"``, ``"numba"``, ...).
    compiled : bool
        Whether the kernel JIT-compiles its inner loops (first call pays
        a warmup; see ``docs/scaling.md``).
    preserves_rng_contract : bool
        Whether the kernel keeps the host-side RNG call sequence of the
        module docstring and is therefore held to *bit identity* with
        the NumPy reference (else: statistical equivalence bands).
    """

    name: str
    compiled: bool
    preserves_rng_contract: bool

    def committed_counts(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Choose stage, committed mode: per-queue committed-client counts.

        Parameters
        ----------
        observed : numpy.ndarray
            Observed per-queue states, shape ``(E, M)`` — raw fillings,
            or the flat ``z·C + c`` heterogeneous encoding.
        sampled : numpy.ndarray
            Sample-stage output, integer queue indices ``(E, N, d)``.
        probs : numpy.ndarray
            Stacked decision-rule table ``(E, S, ..., S, d)`` from
            :func:`repro.queueing.clients.stack_rules`; a zero replica
            stride marks the shared-rule (stationary) fast path.
        rng : numpy.random.Generator
            Consumes exactly one ``rng.random((E, N))`` draw (contract
            item *b*).

        Returns
        -------
        numpy.ndarray
            Integer counts, shape ``(E, M)``, summing to ``N`` per row.
        """
        ...

    def packet_fractions(
        self,
        observed: np.ndarray,
        sampled: np.ndarray,
        probs: np.ndarray,
        num_clients: int,
    ) -> np.ndarray:
        """Choose stage, per-packet mode: arrival-rate fractions.

        Deterministic (consumes no stream). Returns float fractions of
        shape ``(E, M)`` summing to 1 per row, accumulated in the
        normative ``(e, n, k)`` order of the module docstring.
        """
        ...

    def serve_epoch(
        self,
        states: np.ndarray,
        arrival_rates: np.ndarray,
        service_rates: np.ndarray | float,
        delta_t: float,
        buffer_size: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve stage: advance all ``E·M`` frozen-rate queues by ``Δt``.

        Consumes one ``rng.poisson`` draw of shape ``(E, M)`` followed
        by ``max_events`` rounds of ``rng.random((E, M))`` (contract
        items *c* and *d*). Input validation is shared across backends
        via :func:`repro.queueing.queue_ctmc.validate_epoch_inputs`.

        Returns
        -------
        tuple of numpy.ndarray
            ``(new_states, drops)``, both integer ``(E, M)`` arrays.
        """
        ...


def draw_uniform_queue_samples(
    rng: np.random.Generator,
    num_replicas: int,
    num_clients: int,
    d: int,
    num_queues: int,
) -> np.ndarray:
    """Sample stage of the dense environments (RNG-contract item *a*).

    One ``rng.integers(0, M, size=(E, N, d))`` call — uniform with
    replacement, exactly Eq. (3) of the paper. Graph environments
    replace this with a neighborhood-restricted draw of the same shape
    (see :meth:`repro.queueing.graph_env.BatchedGraphFiniteEnv._sample`).

    Returns
    -------
    numpy.ndarray
        Integer queue indices, shape ``(E, N, d)``.
    """
    return rng.integers(0, num_queues, size=(num_replicas, num_clients, d))
