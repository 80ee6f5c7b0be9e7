"""Batched finite-system simulation on sparse dispatcher→server graphs.

:class:`BatchedGraphFiniteEnv` is the locality-constrained counterpart
of :class:`repro.queueing.batched_env.BatchedFiniteSystemEnv`: every
client lives at a dispatcher node of a
:class:`repro.queueing.topology.TopologySpec` and samples its ``d``
queues uniformly *from that node's neighborhood* instead of from all
``M`` queues (the setting of arXiv:2312.12973). Everything else —
decision rules on the sampled states, frozen per-queue Poisson rates,
the lock-step uniformization kernel, per-replica arrival-mode chains —
is inherited unchanged from the dense batched machinery.

The hot path stays vectorized with no per-node Python loops. Under
committed routing each dispatcher's clients draw their per-queue counts
from one multinomial over its neighborhood (``O(E·K·degree)``, with the
probabilities from that neighborhood's state histogram). Under per-packet
routing clients draw *slot* indices ``u ~ Unif{0..degree-1}`` in one
``(E, N, d)`` call and the sampled queue indices are one flat ``take``
into the precomputed ``(num_dispatchers, degree)`` neighbor array.

Determinism contract: on a full-mesh topology both routing modes make
the *same call with the same arguments* the dense backend makes (one
multinomial over all ``M`` queues in index order, or the slot draw
``rng.integers(0, M, size=(E, N, d))`` whose identity gather maps slots
to themselves), so a full-mesh graph simulation is bit-identical to
:class:`BatchedFiniteSystemEnv` under a shared seed (property-tested in
``tests/test_properties.py``). Environments are plain NumPy-holding
objects and pickle through the multiprocess
:class:`repro.experiments.parallel.SweepExecutor` unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.batched_env import _BatchedQueueSystemBase
from repro.queueing.topology import TopologySpec

__all__ = ["BatchedGraphFiniteEnv"]


class BatchedGraphFiniteEnv(_BatchedQueueSystemBase):
    """``E`` replicas of the finite system on a sparse access graph.

    Clients are assigned round-robin to the topology's dispatcher nodes
    and sample their ``d`` queues from the node's neighborhood; queue
    ``j`` then receives Poisson arrivals at the frozen rate
    ``λ_j = M λ_t · count_j / N`` (committed-choice mode) or the
    per-packet thinned analogue, exactly as in the dense system. Accepts
    per-queue ``service_rates`` for heterogeneous-capacity variants
    (arXiv:2012.10142) riding the same topology machinery.
    """

    def __init__(
        self,
        config: SystemConfig,
        topology: TopologySpec,
        num_replicas: int = 1,
        arrival_process: MarkovModulatedRate | None = None,
        service_rates: np.ndarray | None = None,
        per_packet_randomization: bool = False,
        seed=None,
        backend: str | None = None,
        chaos=None,
    ) -> None:
        if topology.num_queues != config.num_queues:
            raise ValueError(
                f"topology covers {topology.num_queues} queues, config has "
                f"{config.num_queues}"
            )
        unreachable = int((topology.in_degrees() == 0).sum())
        if unreachable:
            raise ValueError(
                f"{unreachable} queue(s) are unreachable from every "
                "dispatcher — they would idle forever"
            )
        super().__init__(
            config,
            num_replicas=num_replicas,
            arrival_process=arrival_process,
            service_rates=service_rates,
            per_packet_randomization=per_packet_randomization,
            seed=seed,
            backend=backend,
            chaos=chaos,
        )
        self.topology = topology

    def _dispatchers(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct neighborhoods and the clients of each, ``(G, degree)``
        and ``(G,)``.

        Dispatchers that reach the same queue set give their clients the
        same choice probabilities, and independent multinomials with
        equal probabilities add up to one, so each distinct neighborhood
        (rows sorted) needs a single draw. A full mesh is one group over
        all queues in index order: the dense system's draw exactly.
        """
        topology = self.topology
        groups, owner = np.unique(
            np.sort(topology.neighbors, axis=1), axis=0, return_inverse=True
        )
        clients = np.bincount(
            owner.ravel(),
            weights=topology.dispatcher_loads(self.config.num_clients),
            minlength=len(groups),
        )
        return groups, clients.astype(np.int64)

    def _sample(self, d: int) -> np.ndarray:
        """Neighborhood-restricted queue samples, shape ``(E, N, d)``.

        The slot draw is the single ``rng.integers`` call of the dense
        sampler with ``M`` replaced by ``degree``, gathered through each
        client's dispatcher row of the neighbor array; for a full mesh
        (one dispatcher, the identity neighborhood) the gather returns
        the slots themselves, so the stream *and* the values match the
        dense path exactly.
        """
        topology = self.topology
        offsets = (
            topology.client_dispatchers(self.config.num_clients)
            * topology.degree
        )
        slots = self._rng.integers(
            0, topology.degree, size=(self.num_replicas, offsets.size, d)
        )
        return topology.neighbors.take(
            (slots + offsets[None, :, None]).ravel()
        ).reshape(slots.shape)
