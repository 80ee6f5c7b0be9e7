"""One frozen bundle for the execution knobs threaded through the harness.

Every sweep/stream entry point — :mod:`repro.experiments.runner`, the
figure runners, :mod:`repro.scenarios.run`, :mod:`repro.serving.engine`
and the CLI — takes its execution knobs as one
``context=ExecutionContext(...)``: ``workers`` (process count),
``store`` (the content-addressed shard cache), ``sim_backend`` (the
epoch kernel), ``max_batch_replicas`` (the replica chunk size) and the
multi-node ``claim``/``merge_only`` modes.

None of these knobs ever changes a merged result — worker count, cache
hits and contract-preserving kernels are all bit-identity-preserving —
so the context is deliberately *not* part of any experiment-store
fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.store.store import ExperimentStore

__all__ = ["ExecutionContext"]


@dataclass(frozen=True)
class ExecutionContext:
    """How to execute a sweep or stream (never *what* to compute).

    Attributes
    ----------
    workers:
        Process count (``1`` = in-process). Never changes merged
        statistics — replica chunking and seeding are worker-invariant.
    store:
        Optional :class:`repro.store.store.ExperimentStore`: previously
        computed shards are merged from the cache instead of simulated.
    sim_backend:
        Epoch kernel (``"numpy"``, ``"numba"``, ``"auto"``; see
        :mod:`repro.queueing.backends`).
    max_batch_replicas:
        Replica chunk size (also the shard granularity). ``None`` keeps
        the callee's default (``64``, or a scenario's registered value).
    claim:
        Multi-node mode: claim each pending shard through the store's
        atomic claim files before computing it, and wait for (rather
        than recompute) shards claimed by other hosts — so independent
        hosts sharing ``store`` partition a sweep. Requires ``store``.
    merge_only:
        Merge previously completed shards from the store without
        computing anything; raises if any shard is missing. Requires
        ``store``; mutually exclusive with ``claim``.
    """

    workers: int = 1
    store: "ExperimentStore | None" = None
    sim_backend: str = "numpy"
    max_batch_replicas: int | None = None
    claim: bool = False
    merge_only: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.claim and self.merge_only:
            raise ValueError("claim and merge_only are mutually exclusive")
        if (self.claim or self.merge_only) and self.store is None:
            raise ValueError(
                "claim/merge_only coordinate through the experiment "
                "store; pass store= as well"
            )
        if self.max_batch_replicas is not None and self.max_batch_replicas < 1:
            raise ValueError(
                "max_batch_replicas must be >= 1, "
                f"got {self.max_batch_replicas}"
            )
        from repro.queueing.backends import available_backends

        if self.sim_backend != "auto" and (
            self.sim_backend not in available_backends()
        ):
            raise ValueError(
                f"unknown sim_backend {self.sim_backend!r}; registered "
                f"kernels: {available_backends()} (or 'auto')"
            )

    def resolved_max_batch_replicas(self, default: int = 64) -> int:
        """The chunk size with the callee's default applied."""
        if self.max_batch_replicas is None:
            return int(default)
        return int(self.max_batch_replicas)
