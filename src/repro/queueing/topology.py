"""Sparse dispatcher→server topologies for locality-constrained routing.

The paper's model lets every dispatcher sample any of the ``M`` queues
(Eq. 3) — a complete bipartite graph. The follow-up *Sparse Mean Field
Load Balancing in Large Localized Queueing Systems* (arXiv:2312.12973)
studies the practically relevant regime where each dispatcher only
reaches a bounded-degree neighborhood of servers: rack-local routing,
edge gateways, geographically constrained clusters.

A :class:`TopologySpec` captures one such access structure as a dense
*neighbor index array* of shape ``(num_dispatchers, degree)``: row ``i``
lists the queue indices dispatcher ``i`` may sample from. Dense
rectangular storage (every dispatcher has the same degree) is what keeps
the simulation hot path a single vectorized NumPy gather — sampling a
queue is ``neighbors[dispatcher, slot]`` with ``slot ~ Unif{0..degree-1}``,
no per-node Python loops and no ragged adjacency lists.

Shipped families:

* :meth:`TopologySpec.full_mesh` — the degenerate complete graph. One
  dispatcher node whose neighborhood is the identity permutation of all
  ``M`` queues, so slot indices *are* queue indices and the graph
  environment consumes the random stream exactly like the dense
  :class:`repro.queueing.batched_env.BatchedFiniteSystemEnv` (tested
  bit-for-bit).
* :meth:`TopologySpec.ring` — ``M`` co-located dispatchers on a cycle,
  each reaching the queues within ring distance ``radius``.
* :meth:`TopologySpec.torus` — a ``rows × cols`` wrap-around grid with
  Chebyshev (Moore) neighborhoods of a given radius.
* :meth:`TopologySpec.random_regular` — every dispatcher reaches
  ``degree`` distinct uniformly random queues (a random regular
  bipartite access graph; seeded, so a spec is reproducible).
* :meth:`TopologySpec.bipartite` — ``K ≠ M`` dispatcher nodes, each
  wired to ``degree`` distinct random queues: the general
  dispatcher→server form of the random family.

Specs are plain data (frozen dataclass holding one integer array), so
they pickle unchanged through the multiprocess sweep executor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["TopologySpec", "near_square_factors"]


def _repair_coverage(neighbors: np.ndarray, num_queues: int) -> None:
    """Rewire (in place) so every queue has in-degree >= 1 when possible.

    Random without-replacement rows occasionally leave a queue unwired
    (likely for small ``M·degree``); an unreachable queue idles forever,
    so each uncovered queue steals one edge from the currently
    best-covered queue, picked from a row that does not already contain
    the orphan. Deterministic given the drawn array, preserves row
    degrees and distinctness, and is a no-op when coverage already
    holds. Impossible repairs (fewer edges than queues) are left to the
    environment's reachability check.
    """
    if neighbors.size < num_queues:
        return
    counts = np.bincount(neighbors.ravel(), minlength=num_queues)
    for orphan in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        if counts[donor] <= 1:
            return  # cannot rewire without orphaning the donor
        rows, cols = np.nonzero(neighbors == donor)
        for row, col in zip(rows, cols):
            if orphan not in neighbors[row]:
                neighbors[row, col] = orphan
                counts[donor] -= 1
                counts[orphan] += 1
                break


def near_square_factors(m: int) -> tuple[int, int]:
    """Factor ``m = rows * cols`` with the most square split available.

    Public so callers that must adapt other parameters to the grid shape
    (e.g. clamping a torus radius to the short side for overridden queue
    counts) see exactly the factorization :meth:`TopologySpec.torus`
    will use.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    root = int(np.sqrt(m))
    for rows in range(root, 0, -1):
        if m % rows == 0:
            return rows, m // rows
    raise AssertionError("unreachable: 1 divides every m")  # pragma: no cover


@dataclass(frozen=True, eq=False)
class TopologySpec:
    """A dispatcher→server access graph as a dense neighbor index array.

    Attributes
    ----------
    kind:
        Family label (``"full-mesh"``, ``"ring"``, ``"torus"``,
        ``"random-regular"``, ``"bipartite"``); purely descriptive.
    num_queues:
        ``M`` — number of servers/queues the indices refer to.
    neighbors:
        Integer array ``(num_dispatchers, degree)``; row ``i`` holds the
        queue indices dispatcher node ``i`` may sample. Rows need not be
        sorted; duplicates within a row are rejected (they would silently
        bias the sampling weights).
    """

    kind: str
    num_queues: int
    neighbors: np.ndarray

    def __post_init__(self) -> None:
        neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int64)
        if neighbors.ndim != 2 or neighbors.size == 0:
            raise ValueError(
                "neighbors must be a non-empty (num_dispatchers, degree) "
                f"array, got shape {np.shape(self.neighbors)}"
            )
        if self.num_queues < 1:
            raise ValueError("num_queues must be >= 1")
        if neighbors.min() < 0 or neighbors.max() >= self.num_queues:
            raise ValueError(
                f"neighbor indices must lie in [0, {self.num_queues - 1}]"
            )
        sorted_rows = np.sort(neighbors, axis=1)
        if bool((sorted_rows[:, 1:] == sorted_rows[:, :-1]).any()):
            raise ValueError(
                "neighborhoods must not repeat a queue (duplicate entries "
                "would silently bias the uniform slot sampling)"
            )
        object.__setattr__(self, "neighbors", neighbors)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_dispatchers(self) -> int:
        return int(self.neighbors.shape[0])

    @property
    def degree(self) -> int:
        """Out-degree: queues reachable from every dispatcher."""
        return int(self.neighbors.shape[1])

    def is_full_mesh(self) -> bool:
        """True when every dispatcher reaches every queue."""
        if self.degree != self.num_queues:
            return False
        expected = np.arange(self.num_queues)
        return bool((np.sort(self.neighbors, axis=1) == expected).all())

    def in_degrees(self) -> np.ndarray:
        """Number of dispatchers reaching each queue, shape ``(M,)``.

        A queue with in-degree 0 is unreachable and will never receive
        traffic — usually a misconfigured topology.
        """
        return np.bincount(self.neighbors.ravel(), minlength=self.num_queues)

    def client_dispatchers(self, num_clients: int) -> np.ndarray:
        """Round-robin assignment of ``N`` clients to dispatcher nodes.

        Deterministic (client ``i`` lives at node ``i mod K``) so the
        assignment never consumes random state and node loads differ by
        at most one client.
        """
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        return np.arange(num_clients, dtype=np.int64) % self.num_dispatchers

    def dispatcher_loads(self, num_clients: int) -> np.ndarray:
        """Clients per dispatcher node under :meth:`client_dispatchers`,
        shape ``(K,)``, without materializing the ``N`` assignments."""
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        k = self.num_dispatchers
        loads = np.full(k, num_clients // k, dtype=np.int64)
        loads[: num_clients % k] += 1
        return loads

    def memory_bytes(self) -> int:
        """Size of the neighbor array (the only O(K·degree) state)."""
        return int(self.neighbors.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopologySpec(kind={self.kind!r}, K={self.num_dispatchers}, "
            f"M={self.num_queues}, degree={self.degree})"
        )

    # ------------------------------------------------------------------
    # Families
    # ------------------------------------------------------------------
    @classmethod
    def full_mesh(cls, num_queues: int) -> "TopologySpec":
        """The complete access graph as one dispatcher node seeing all
        queues *in index order*.

        The identity neighborhood makes the graph environment's
        ``neighbors[0, slot] == slot`` gather a no-op, which is what
        guarantees bit-identical streams against the dense backend.
        """
        return cls(
            kind="full-mesh",
            num_queues=num_queues,
            neighbors=np.arange(num_queues, dtype=np.int64)[None, :],
        )

    @classmethod
    def ring(cls, num_queues: int, radius: int = 1) -> "TopologySpec":
        """``M`` dispatchers on a cycle, each seeing queues within
        ``radius`` hops (its own queue included): degree ``2·radius + 1``.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if 2 * radius + 1 > num_queues:
            raise ValueError(
                f"ring radius {radius} wraps past the whole cycle of "
                f"{num_queues} queues"
            )
        base = np.arange(num_queues, dtype=np.int64)[:, None]
        offsets = np.arange(-radius, radius + 1, dtype=np.int64)[None, :]
        return cls(
            kind="ring",
            num_queues=num_queues,
            neighbors=(base + offsets) % num_queues,
        )

    @classmethod
    def torus(
        cls,
        rows: int,
        cols: int | None = None,
        radius: "int | tuple[int, int]" = 1,
    ) -> "TopologySpec":
        """A ``rows × cols`` wrap-around grid; each dispatcher sees the
        Moore (Chebyshev) neighborhood of ``radius``: degree
        ``(2·r_rows + 1) · (2·r_cols + 1)``.

        ``cols=None`` treats ``rows`` as the total queue count and picks
        the most square factorization. ``radius`` may be a per-axis pair
        so narrow grids (a 2 × 5 factorization of ``M = 10``) can keep a
        long-axis neighborhood instead of degenerating or wrapping onto
        themselves.
        """
        if cols is None:
            rows, cols = near_square_factors(rows)
        if rows < 1 or cols < 1:
            raise ValueError("torus needs rows >= 1 and cols >= 1")
        r_radius, c_radius = (
            (radius, radius) if isinstance(radius, int) else radius
        )
        if r_radius < 0 or c_radius < 0:
            raise ValueError("radius must be >= 0")
        if 2 * r_radius + 1 > rows or 2 * c_radius + 1 > cols:
            raise ValueError(
                f"torus radius ({r_radius}, {c_radius}) wraps around a "
                f"{rows}x{cols} grid"
            )
        r = np.arange(rows, dtype=np.int64)
        c = np.arange(cols, dtype=np.int64)
        offs_r = np.arange(-r_radius, r_radius + 1, dtype=np.int64)
        offs_c = np.arange(-c_radius, c_radius + 1, dtype=np.int64)
        # Row/column coordinates of every (dispatcher, neighbor) pair.
        nr = (r[:, None, None, None] + offs_r[None, None, :, None]) % rows
        nc = (c[None, :, None, None] + offs_c[None, None, None, :]) % cols
        neighbors = (nr * cols + nc).reshape(
            rows * cols, offs_r.size * offs_c.size
        )
        return cls(kind="torus", num_queues=rows * cols, neighbors=neighbors)

    @classmethod
    def random_regular(
        cls,
        num_queues: int,
        degree: int,
        seed: int | np.random.Generator | None = 0,
        num_dispatchers: int | None = None,
        kind: str = "random-regular",
    ) -> "TopologySpec":
        """Every dispatcher reaches ``degree`` distinct uniform queues.

        One dispatcher per queue by default (``num_dispatchers=M``). The
        draw is seeded, so a spec is a pure function of its arguments —
        re-registering a scenario always rebuilds the same graph.
        """
        if num_dispatchers is None:
            num_dispatchers = num_queues
        if num_dispatchers < 1:
            raise ValueError("num_dispatchers must be >= 1")
        if not 1 <= degree <= num_queues:
            raise ValueError(
                f"degree must lie in [1, {num_queues}], got {degree}"
            )
        rng = as_generator(seed)
        # Row-wise sampling without replacement: permute rows of a tiled
        # arange and keep the first `degree` columns. Rows are processed
        # in chunks so the O(rows x M) permutation scratch stays bounded
        # (~32 MB) while the stored result remains O(K x degree); small
        # graphs fit one chunk, so their draw is unchanged by chunking.
        chunk_rows = max(1, (1 << 22) // num_queues)
        parts = []
        for start in range(0, num_dispatchers, chunk_rows):
            count = min(chunk_rows, num_dispatchers - start)
            tiled = np.tile(np.arange(num_queues, dtype=np.int64), (count, 1))
            parts.append(rng.permuted(tiled, axis=1)[:, :degree])
        neighbors = parts[0] if len(parts) == 1 else np.vstack(parts)
        _repair_coverage(neighbors, num_queues)
        return cls(kind=kind, num_queues=num_queues, neighbors=neighbors)

    @classmethod
    def bipartite(
        cls,
        num_dispatchers: int,
        num_queues: int,
        degree: int,
        seed: int | np.random.Generator | None = 0,
    ) -> "TopologySpec":
        """General dispatcher→server graph: ``K`` dispatcher nodes, each
        wired to ``degree`` distinct random queues (``K`` free of ``M``).
        """
        return cls.random_regular(
            num_queues,
            degree,
            seed=seed,
            num_dispatchers=num_dispatchers,
            kind="bipartite",
        )
