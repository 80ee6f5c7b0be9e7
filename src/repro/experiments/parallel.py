"""Sharded multiprocess execution of sweeps, streams and training regimes.

The paper's headline artifacts (Figures 4-6) are embarrassingly parallel:
independent Monte-Carlo replicas of independent sweep points. This module
shards that work across a :class:`concurrent.futures.ProcessPoolExecutor`
without giving up the repository's bit-for-bit reproducibility
discipline.

The key invariant is that the random streams are a pure function of each
request's master seed and the *replica-chunk layout* — never of the
worker count or completion order. :class:`SweepExecutor` decomposes every
request into the exact same ``(request × replica-chunk)`` shards the
serial path of
:func:`repro.experiments.runner.evaluate_policy_finite` iterates over,
seeds each chunk with its :func:`repro.utils.rng.spawn_seeds` child
(the seeds behind :func:`repro.utils.rng.spawn_generators`), executes
the shards in any order on any number of processes, and hands every
request its shard payloads back in chunk order. Consequently::

    SweepExecutor(workers=1).run(reqs)
    == SweepExecutor(workers=4).run(reqs)     # bit-identical
    == [evaluate_policy_finite(...) per req]  # bit-identical

``workers=1`` never touches ``multiprocessing`` at all — the graceful
in-process fallback used by tests, single-core boxes and nested callers.

Sweeps (:class:`EvalRequest`), streams
(:class:`repro.serving.engine.StreamRequest`) and the regimes of the
training campaign (:mod:`repro.experiments.campaign`) share this one
executor. A request provides ``resolved_runs()``,
``max_batch_replicas`` and ``seed`` (its chunk layout and the chunks'
seed children), ``store_key(shard)``, ``run_shard(shard)`` (the
shard's result) and ``load(store, key, shard)`` /
``save(store, key, shard, payload)`` (that result read from the store,
``None`` on a miss, and written to it). The executor builds no
environment and reads no entry itself. Sweeps and streams take the
last three from :class:`_ReplicaRequest`: the shard's environment is
built on the chunk's generator, and its flat result is stored as a
drops entry (:meth:`repro.store.store.ExperimentStore.get_shard`).

Everything shipped to a worker (config, policy, environment class and
kwargs, seed material) crosses the process boundary by pickling; the
policies and environments in this repository are plain
NumPy-array-holding objects, so this is cheap relative to a shard's
simulation work. See ``docs/scaling.md`` for guidance on combining
process-level sharding with replica batching.

Because shard results are a pure function of their request and seed
material, they are also *cacheable*: pass ``store=`` (a
:class:`repro.store.store.ExperimentStore`) to reuse previously
computed shards by content hash and persist fresh ones — the mechanism
behind resumable sweeps, streams and campaigns and the ``reproduce``
pipeline (see ``docs/reproduction.md``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.execution import ExecutionContext, MissingShardsError
from repro.queueing.backends import check_sim_backend
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    _BatchedQueueSystemBase,
    check_batched_env_cls,
    run_episodes_batched,
)
from repro.utils.rng import spawn_seeds

if TYPE_CHECKING:
    from repro.experiments.runner import MonteCarloResult
    from repro.policies.base import UpperLevelPolicy
    from repro.store.store import ExperimentStore

__all__ = ["EvalRequest", "SweepExecutor"]

SeedLike = "int | np.random.SeedSequence | np.random.Generator | None"

#: Picklable seed material carried by a shard: ``SeedSequence`` children
#: in the common case, drawn integers for exotic bit generators.
SeedMaterial = "np.random.SeedSequence | int"


class _ReplicaRequest:
    """The executor protocol of requests whose shards are replica chunks.

    :class:`EvalRequest` and :class:`repro.serving.engine.StreamRequest`
    hold ``config``, ``policy``, ``env_cls``, ``env_kwargs`` and
    ``sim_backend``, and say how long an ``n``-replica shard's flat
    result is (``payload_size(n)``) and how to compute it on the
    shard's environment and generator (``shard_payload(env, rng)``).
    """

    def run_shard(self, shard: "_Shard") -> np.ndarray:
        """The shard's payload, on an environment built on its generator."""
        # The kernel choice travels as a kwarg only when it deviates from
        # the default, so custom env classes that predate the ``backend``
        # parameter keep working with the default kernel.
        env_kwargs = dict(self.env_kwargs)
        if self.sim_backend != "numpy":
            env_kwargs.setdefault("backend", self.sim_backend)
        rng = np.random.default_rng(shard.seeds[0])
        env_cls = self.env_cls or BatchedFiniteSystemEnv
        env = env_cls(
            self.config, num_replicas=shard.num_runs, seed=rng, **env_kwargs
        )
        payload = self.shard_payload(env, rng)
        expected = (self.payload_size(shard.num_runs),)
        if payload.shape != expected:
            raise RuntimeError(
                f"shard returned {payload.shape}, expected {expected}"
            )
        return payload

    def load(
        self, store: "ExperimentStore", key: str, shard: "_Shard"
    ) -> np.ndarray | None:
        """The stored payload, or ``None`` (a miss, or an entry of
        another length, which the store quarantines)."""
        return store.get_shard(
            key, expected_runs=self.payload_size(shard.num_runs)
        )

    def save(
        self,
        store: "ExperimentStore",
        key: str,
        shard: "_Shard",
        payload: np.ndarray,
    ) -> None:
        """Persist the payload; a failed write only warns (see
        :meth:`repro.store.store.ExperimentStore.put_entry`)."""
        store.put_shard(
            key, payload, meta={"policy": self.policy.name, "offset": shard.offset}
        )


@dataclass(frozen=True)
class EvalRequest(_ReplicaRequest):
    """One Monte-Carlo evaluation: a sweep point of Figures 4-6.

    Mirrors the signature of
    :func:`repro.experiments.runner.evaluate_policy_finite`; a request is
    the unit whose merged statistics are guaranteed identical no matter
    how many workers execute its shards.

    ``env_cls`` must be a subclass of the batched queue-system base;
    ``None`` selects the standard finite-system environment.
    ``sim_backend`` picks the *epoch kernel* from
    :mod:`repro.queueing.backends` (``"numpy"``, ``"numba"`` or
    ``"auto"``). Kernels that preserve the RNG-draw contract produce
    bit-identical results, so shards cached under one such kernel are
    reused by the others.
    """

    config: SystemConfig
    policy: "UpperLevelPolicy"
    num_runs: int | None = None
    num_epochs: int | None = None
    seed: "SeedLike" = 0
    max_batch_replicas: int = 64
    env_cls: type | None = None
    env_kwargs: dict[str, Any] = field(default_factory=dict)
    sim_backend: str = "numpy"

    def __post_init__(self) -> None:
        check_batched_env_cls(self.env_cls)
        check_sim_backend(self.sim_backend)
        if self.max_batch_replicas < 1:
            raise ValueError("max_batch_replicas must be >= 1")
        if self.resolved_runs() < 1:
            raise ValueError("num_runs must be >= 1")

    def resolved_runs(self) -> int:
        return int(
            self.num_runs
            if self.num_runs is not None
            else self.config.monte_carlo_runs
        )

    def payload_size(self, num_runs: int) -> int:
        """A shard's payload holds one drop total per replica."""
        return num_runs

    def shard_payload(
        self, env: _BatchedQueueSystemBase, rng: np.random.Generator
    ) -> np.ndarray:
        """One shard's per-replica cumulative per-queue drops."""
        return run_episodes_batched(
            env, self.policy, num_epochs=self.num_epochs, seed=rng
        ).total_drops_per_queue

    def store_key(self, shard: "_Shard") -> str:
        """The shard's content key (:func:`repro.store.keys.shard_key`)."""
        from repro.store.keys import shard_key

        return shard_key(self, shard)


@dataclass(frozen=True)
class _Shard:
    """A contiguous replica chunk of one request (the work unit)."""

    request_index: int
    offset: int  # first replica index within the request
    num_runs: int
    # The chunk generator's seed: a SeedSequence (or an int for exotic
    # generators without a retrievable seed sequence), as a 1-tuple.
    seeds: "tuple[SeedMaterial, ...]"


def _chunk_sizes(runs: int, max_chunk: int) -> list[int]:
    """The serial path's replica chunking (same layout, same order)."""
    return [min(max_chunk, runs - start) for start in range(0, runs, max_chunk)]


def _decompose(requests: Sequence[Any]) -> list[_Shard]:
    """Split every request into its deterministic replica-chunk shards."""
    shards: list[_Shard] = []
    for index, request in enumerate(requests):
        sizes = _chunk_sizes(request.resolved_runs(), request.max_batch_replicas)
        children = spawn_seeds(request.seed, len(sizes))
        offset = 0
        for size, child in zip(sizes, children):
            shards.append(_Shard(index, offset, size, (child,)))
            offset += size
    return shards


class SweepExecutor:
    """Shard ``(request × replica-chunk)`` work units across processes.

    Runs sweep points (:class:`EvalRequest`), streams
    (:class:`repro.serving.engine.StreamRequest`) and campaign regimes
    alike; see the module docstring for what a request provides.

    Parameters
    ----------
    workers:
        Process count. ``1`` executes every shard in-process (no
        ``multiprocessing`` involvement); ``None`` uses
        ``os.cpu_count()``. Results are independent of this value.
    store:
        Optional :class:`repro.store.store.ExperimentStore`. When given,
        every shard is looked up by its content hash before dispatch
        (cache hits merge without simulating anything) and every freshly
        computed shard is persisted atomically on completion — so a
        killed sweep resumes where it stopped, and overlapping sweeps
        (e.g. two figure grids sharing sub-sweeps) reuse each other's
        shards. Cached and fresh shards merge bit-identically to a cold
        run because a shard's streams are a pure function of its key
        inputs.
    context:
        Optional :class:`repro.execution.ExecutionContext` carrying
        ``workers``, ``store``, ``claim`` and ``merge_only`` in one
        bundle. Mutually exclusive with passing those individually
        (``TypeError``); the executor is the low-level machinery, so its
        own keywords stay supported — only the *mixing* of styles is
        rejected. The context's ``sim_backend``/``max_batch_replicas``
        are per-request knobs and are ignored here.
    claim:
        Multi-node mode: just before computing a pending shard, claim
        it through the store's atomic claim files
        (:meth:`~repro.store.store.ExperimentStore.try_claim`); a host
        holds at most one claim per worker at a time.
        Independent hosts pointing at one shared store directory then
        partition a sweep between them without a coordinator: each host
        computes the shards it wins, polls the store for shards claimed
        elsewhere, and merges everything bit-identically to a
        single-host run (shard streams are pure functions of their key
        inputs, so *who* computes a shard cannot change it). A claim
        untouched for ``stale_claim_after`` seconds (a killed worker) is
        taken over, making every shard at-least-once. Requires
        ``store``.
    merge_only:
        Merge previously completed shards from the store without
        computing anything; raises
        :class:`~repro.execution.MissingShardsError` naming the missing
        shard count if the sweep is incomplete. This is how any host —
        even one that computed nothing — assembles a partitioned
        sweep's final result. Requires ``store``; mutually exclusive
        with ``claim``.
    claim_owner:
        Identity written into claim files (diagnostics only); defaults
        to ``"<hostname>:<pid>"``.
    stale_claim_after:
        Seconds after which another worker's untouched claim is
        considered abandoned and taken over. ``None`` disables takeover
        (a killed claimant then blocks the sweep until its claim is
        removed by hand).
    claim_poll_interval:
        Seconds between store polls while waiting for shards claimed by
        other hosts.
    claim_timeout:
        Optional overall deadline (seconds) for those waits;
        ``TimeoutError`` when exceeded. ``None`` waits indefinitely.
    """

    def __init__(
        self,
        workers: int | None = None,
        store: "ExperimentStore | None" = None,
        context: "ExecutionContext | None" = None,
        claim: bool = False,
        merge_only: bool = False,
        claim_owner: str | None = None,
        stale_claim_after: float | None = 1800.0,
        claim_poll_interval: float = 0.25,
        claim_timeout: float | None = None,
    ) -> None:
        import os

        if context is None:
            # The context validates the four knobs for both styles.
            context = ExecutionContext(
                workers=(os.cpu_count() or 1) if workers is None else workers,
                store=store,
                claim=claim,
                merge_only=merge_only,
            )
        elif workers is not None or store is not None or claim or merge_only:
            raise TypeError(
                "pass workers/store either via context= or "
                "individually, not both"
            )
        if stale_claim_after is not None and stale_claim_after <= 0:
            raise ValueError("stale_claim_after must be > 0 (or None)")
        if claim_poll_interval <= 0:
            raise ValueError("claim_poll_interval must be > 0")
        if claim_timeout is not None and claim_timeout <= 0:
            raise ValueError("claim_timeout must be > 0 (or None)")
        self.workers = int(context.workers)
        self.store = context.store
        self.claim = bool(context.claim)
        self.merge_only = bool(context.merge_only)
        if claim_owner is None:
            import socket

            claim_owner = f"{socket.gethostname()}:{os.getpid()}"
        self.claim_owner = str(claim_owner)
        self.stale_claim_after = stale_claim_after
        self.claim_poll_interval = float(claim_poll_interval)
        self.claim_timeout = claim_timeout

    def run_payloads(self, requests: Sequence[Any]) -> list[list[Any]]:
        """Every request's shard payloads, in chunk order.

        The entry point for any request kind (see the module docstring):
        cached shards are read from the store, the rest are computed
        (serially, pooled or claim-partitioned), and each request gets
        its payloads back in chunk order whatever the completion order.
        """
        requests = list(requests)
        shards = _decompose(requests)
        done: dict[_Shard, Any] = {}
        pending = self._resolve_cached(requests, shards, done)
        if self.merge_only:
            if pending:
                raise MissingShardsError(
                    f"merge-only run is missing {len(pending)} shard(s) "
                    "from the store; run the claimants to completion first"
                )
        elif self.claim:
            self._run_claimed(requests, done, pending)
        else:
            self._execute(requests, done, pending)
        payloads: list[list[Any]] = [[] for _ in requests]
        for shard in shards:
            payloads[shard.request_index].append(done[shard])
        return payloads

    def run_drops(self, requests: Sequence[EvalRequest]) -> list[np.ndarray]:
        """Merged per-replica drops for every request, in request order.

        The low-level entry point: returns the raw drop arrays so callers
        that do not want :class:`MonteCarloResult` objects (benchmarks,
        custom mergers) can consume shard output directly.
        """
        return [np.concatenate(chunks) for chunks in self.run_payloads(requests)]

    def _execute(
        self,
        requests: list[Any],
        done: dict[_Shard, Any],
        pending: "list[tuple[_Shard, str | None]]",
    ) -> None:
        """Compute ``pending`` shards (serially or pooled) into ``done``."""
        if self.workers == 1 or len(pending) <= 1:
            for shard, key in pending:
                request = requests[shard.request_index]
                done[shard] = request.run_shard(shard)
                self._persist(request, shard, key, done[shard])
            return
        max_workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(
                    requests[shard.request_index].run_shard, shard
                ): (shard, key)
                for shard, key in pending
            }
            try:
                for future in as_completed(futures):
                    shard, key = futures[future]
                    done[shard] = future.result()
                    self._persist(
                        requests[shard.request_index], shard, key, done[shard]
                    )
            except BaseException:
                # Fail fast: drop every still-queued shard instead of
                # letting a long sweep run to completion behind the
                # first worker failure (in-flight shards still finish).
                for future in futures:
                    future.cancel()
                raise

    def _run_claimed(
        self,
        requests: list[Any],
        done: dict[_Shard, Any],
        pending: "list[tuple[_Shard, str | None]]",
    ) -> None:
        """Claim-partitioned execution of ``pending`` against the store.

        Each round claims at most one unowned shard per worker
        (including stale claims of dead workers), computes them, then
        sweeps the store for shards other hosts finished in the
        meantime. A host thus claims a shard just before computing it:
        a host that starts later still finds unclaimed shards, and a
        live host holds claims only on shards it is computing. The loop
        terminates because every shard is either claimable here
        eventually (stale takeover) or completed — and published —
        elsewhere; merged output is bit-identical to a single-host run
        because shard results are pure functions of their key inputs.
        """
        import time

        assert self.store is not None
        deadline = (
            None
            if self.claim_timeout is None
            else time.monotonic() + self.claim_timeout
        )
        remaining = list(pending)
        while remaining:
            mine: list[tuple[_Shard, str | None]] = []
            waiting: list[tuple[_Shard, str | None]] = []
            unclaimed: list[tuple[_Shard, str | None]] = []
            for shard, key in remaining:
                assert key is not None  # claim mode requires a store
                if len(mine) == self.workers:
                    unclaimed.append((shard, key))
                    continue
                if not self.store.try_claim(
                    key, self.claim_owner, stale_after=self.stale_claim_after
                ):
                    waiting.append((shard, key))
                    continue
                # Claim-then-check: a finished claimant persists *before*
                # releasing, so holding the claim and still missing the
                # entry proves nobody computed this shard — duplicates
                # are impossible outside stale takeover of a live
                # worker.
                payload = requests[shard.request_index].load(
                    self.store, key, shard
                )
                if payload is not None:
                    done[shard] = payload
                    self.store.release_claim(key)
                else:
                    mine.append((shard, key))
            if mine:
                try:
                    self._execute(requests, done, mine)
                finally:
                    # Results are persisted (or at least merged); drop
                    # the claims so crashes here don't strand shards
                    # until stale takeover.
                    for _, key in mine:
                        self.store.release_claim(key)
            remaining = []
            for shard, key in waiting:
                payload = requests[shard.request_index].load(
                    self.store, key, shard
                )
                if payload is not None:
                    done[shard] = payload
                else:
                    remaining.append((shard, key))
            remaining.extend(unclaimed)
            if remaining and not mine:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"{len(remaining)} shard(s) still claimed by other "
                        f"workers after {self.claim_timeout:g}s"
                    )
                time.sleep(self.claim_poll_interval)

    def _resolve_cached(
        self,
        requests: list[Any],
        shards: list[_Shard],
        done: dict[_Shard, Any],
    ) -> "list[tuple[_Shard, str | None]]":
        """Merge store hits into ``done``; return the shards left to compute.

        Each pending entry carries the shard's precomputed store key
        (``None`` without a store) so completion can persist the result
        without re-hashing the request.
        """
        if self.store is None:
            return [(shard, None) for shard in shards]
        pending: list[tuple[_Shard, str | None]] = []
        for shard in shards:
            request = requests[shard.request_index]
            key = request.store_key(shard)
            payload = request.load(self.store, key, shard)
            if payload is not None:
                done[shard] = payload
            else:
                pending.append((shard, key))
        return pending

    def _persist(
        self, request: Any, shard: _Shard, key: str | None, payload: Any
    ) -> None:
        """Write one completed shard back to the store (if attached)."""
        if self.store is not None and key is not None:
            request.save(self.store, key, shard, payload)

    def run(self, requests: Sequence[EvalRequest]) -> "list[MonteCarloResult]":
        """Evaluate every request; returns one merged
        :class:`~repro.experiments.runner.MonteCarloResult` per request,
        bit-identical to the serial
        :func:`~repro.experiments.runner.evaluate_policy_finite` path."""
        from repro.experiments.runner import MonteCarloResult

        requests = list(requests)
        return [
            MonteCarloResult(
                policy_name=request.policy.name,
                config=request.config,
                drops=drops,
            )
            for request, drops in zip(requests, self.run_drops(requests))
        ]
