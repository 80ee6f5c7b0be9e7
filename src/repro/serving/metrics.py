"""Online metrics for streaming runs: quantile sketches and windows.

Everything here is O(1) memory in the horizon:

* P² sketches (Jain & Chlamtać 1985): five markers track one quantile
  of a stream without storing observations. Used for the continuous
  sojourn-time proxy, every ``(replica, quantile)`` sketch advanced in
  lock-step by ``_P2Batch``; pinned to a scalar reference and
  property-tested against :func:`numpy.quantile` in
  ``tests/test_serving.py``.
* exact streaming quantiles for *queue lengths*: the state space is the
  finite set ``{0, ..., B}``, so a per-replica count histogram gives
  exact quantiles in O(S) memory — no sketch error where none is
  needed.
* :class:`WindowedSeries` — fixed-size time windows of operator-grade
  series (drop rate, throughput, mean backlog). The retained window
  count is bounded by ``max_windows``: when a run outgrows it,
  adjacent windows merge pairwise and the window width doubles, so an
  arbitrarily long horizon keeps at most ``max_windows`` rows at a
  deterministic resolution (:func:`window_layout` computes the layout
  without running anything).
* :class:`StreamingMetrics` — the per-epoch fold tying the above to the
  batched environments' ``(states, drops, rates)`` epoch outputs.

Metric definitions are documented for operators in ``docs/serving.md``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WindowedSeries",
    "window_layout",
    "StreamingMetrics",
    "SUMMARY_FIELDS",
    "WINDOW_FIELDS",
]

#: Default cap on retained windows (see :class:`WindowedSeries`).
DEFAULT_MAX_WINDOWS = 512


class _P2Batch:
    """``R`` independent P² sketches advanced in lock-step (vectorized).

    The streaming fold feeds one observation per replica per epoch into
    ``len(quantiles)`` sketches each; looping scalar sketches would put
    ``E × Q`` Python calls on the hot path. This class stacks all marker
    state into ``(R, 5)`` arrays and performs the identical update
    arithmetic with a handful of NumPy operations per batch — per-row
    results match the scalar reference implementation kept in
    ``tests/test_serving.py`` (pinned by a test there).
    """

    def __init__(self, ps: np.ndarray) -> None:
        self.p = np.asarray(ps, dtype=np.float64)
        if self.p.ndim != 1 or np.any((self.p <= 0) | (self.p >= 1)):
            raise ValueError("quantiles must lie in (0, 1)")
        r = self.p.size
        self.count = 0
        self._buffer: list[np.ndarray] = []
        self._q = np.empty((r, 5))
        self._n = np.empty((r, 5))
        self._nd = np.empty((r, 5))
        p = self.p
        self._inc = np.stack(
            [
                np.zeros(r),
                p / 2.0,
                p,
                (1.0 + p) / 2.0,
                np.ones(r),
            ],
            axis=1,
        )

    def add(self, values: np.ndarray) -> None:
        """Fold one observation per sketch (shape ``(R,)``)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.p.size,):
            raise ValueError(f"expected ({self.p.size},), got {values.shape}")
        self.count += 1
        if self.count <= 5:
            self._buffer.append(values.copy())
            if self.count == 5:
                self._q = np.sort(np.stack(self._buffer, axis=1), axis=1)
                self._n = np.broadcast_to(
                    np.arange(5.0), self._q.shape
                ).copy()
                p = self.p
                self._nd = np.stack(
                    [
                        np.zeros_like(p),
                        2.0 * p,
                        4.0 * p,
                        2.0 + 2.0 * p,
                        np.full_like(p, 4.0),
                    ],
                    axis=1,
                )
            return
        q, n, nd = self._q, self._n, self._nd
        v = values
        q[:, 0] = np.minimum(q[:, 0], v)
        q[:, 4] = np.maximum(q[:, 4], v)
        k = (v[:, None] >= q[:, 1:4]).sum(axis=1)
        n += np.arange(5)[None, :] > k[:, None]
        nd += self._inc
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in (1, 2, 3):
                d = nd[:, i] - n[:, i]
                plus = (d >= 1.0) & (n[:, i + 1] - n[:, i] > 1.0)
                minus = (d <= -1.0) & (n[:, i - 1] - n[:, i] < -1.0)
                act = plus | minus
                if not act.any():
                    continue
                step = np.where(plus, 1.0, -1.0)
                cand = q[:, i] + step / (n[:, i + 1] - n[:, i - 1]) * (
                    (n[:, i] - n[:, i - 1] + step)
                    * (q[:, i + 1] - q[:, i])
                    / (n[:, i + 1] - n[:, i])
                    + (n[:, i + 1] - n[:, i] - step)
                    * (q[:, i] - q[:, i - 1])
                    / (n[:, i] - n[:, i - 1])
                )
                ok = (q[:, i - 1] < cand) & (cand < q[:, i + 1])
                lin = q[:, i] + step * (
                    np.where(plus, q[:, i + 1], q[:, i - 1]) - q[:, i]
                ) / (np.where(plus, n[:, i + 1], n[:, i - 1]) - n[:, i])
                q[:, i] = np.where(act, np.where(ok, cand, lin), q[:, i])
                n[:, i] += np.where(act, step, 0.0)

    def values(self) -> np.ndarray:
        """Current per-sketch estimates, shape ``(R,)``."""
        if self.count == 0:
            raise ValueError("no observations folded")
        if self.count <= 5:
            data = np.stack(self._buffer, axis=1)
            return np.asarray(
                [
                    float(np.quantile(data[i], self.p[i]))
                    for i in range(self.p.size)
                ]
            )
        return self._q[:, 2].copy()


def window_layout(
    horizon: int, window: int, max_windows: int = DEFAULT_MAX_WINDOWS
) -> np.ndarray:
    """Widths (in epochs) of the windows a streaming run will retain.

    Pure arithmetic mirror of :class:`WindowedSeries`'s flush/coarsen
    discipline; the shape of a cached streaming shard's window series is
    derived from this (and a test pins the two implementations
    together).
    """
    if horizon < 0 or window < 1 or max_windows < 1:
        raise ValueError("horizon >= 0, window >= 1, max_windows >= 1 needed")
    # Iterate flush events, not epochs: between flushes the per-epoch
    # accumulation is layout-irrelevant, so this is O(max_windows · log
    # horizon) — the series class performs the identical flush/coarsen
    # sequence per epoch (a test pins the two together).
    widths: list[int] = []
    remaining = int(horizon)
    current = int(window)
    while remaining >= current:
        widths.append(current)
        remaining -= current
        if len(widths) > max_windows:
            widths = [
                sum(widths[i : i + 2]) for i in range(0, len(widths), 2)
            ]
            current *= 2
    if remaining:
        widths.append(remaining)
    return np.asarray(widths, dtype=np.int64)


class WindowedSeries:
    """Per-window sums of a fixed field set, with bounded coarsening.

    Parameters
    ----------
    window : int
        Initial window width in epochs.
    num_fields : int
        Number of scalar series folded per epoch.
    max_windows : int, optional
        Retention cap: exceeding it merges adjacent windows pairwise
        and doubles the effective window width.

    Notes
    -----
    Sums (not means) are accumulated so that merged windows stay exact;
    :meth:`rows` divides by the recorded widths. The recorded layout is
    a deterministic function of ``(epochs, window, max_windows)`` —
    independent of the folded values — which is what lets cached
    streaming shards be reshaped without re-simulation.
    """

    def __init__(
        self,
        window: int,
        num_fields: int,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1 epoch, got {window}")
        if num_fields < 0:
            raise ValueError("num_fields must be >= 0")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.initial_window = int(window)
        self.current_window = int(window)
        self.max_windows = int(max_windows)
        self.num_fields = int(num_fields)
        self._widths: list[int] = []
        self._sums: list[np.ndarray] = []
        self._acc = np.zeros(num_fields)
        self._acc_epochs = 0
        self.epochs = 0

    def add_epoch(self, values) -> None:
        """Fold one epoch's field values (summed into the open window)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_fields,):
            raise ValueError(
                f"expected {self.num_fields} fields, got shape {values.shape}"
            )
        self._acc += values
        self._acc_epochs += 1
        self.epochs += 1
        if self._acc_epochs == self.current_window:
            self._flush()

    def add_partial(self, values) -> None:
        """Fold extra field mass into the open window without advancing
        the epoch clock (for between-epoch events like an autoscale
        handoff). The recorded window layout is unchanged."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_fields,):
            raise ValueError(
                f"expected {self.num_fields} fields, got shape {values.shape}"
            )
        if self._acc_epochs == 0 and self._sums:
            # The previous window just flushed; retroactively charge the
            # event to it rather than pre-charging an empty window.
            self._sums[-1] = self._sums[-1] + values
        else:
            self._acc += values

    def _flush(self) -> None:
        self._widths.append(self._acc_epochs)
        self._sums.append(self._acc)
        self._acc = np.zeros(self.num_fields)
        self._acc_epochs = 0
        if len(self._widths) > self.max_windows:
            self._widths = [
                sum(self._widths[i : i + 2])
                for i in range(0, len(self._widths), 2)
            ]
            self._sums = [
                np.sum(self._sums[i : i + 2], axis=0)
                for i in range(0, len(self._sums), 2)
            ]
            self.current_window *= 2

    def widths(self) -> np.ndarray:
        """Recorded window widths in epochs (open window included)."""
        widths = list(self._widths)
        if self._acc_epochs:
            widths.append(self._acc_epochs)
        return np.asarray(widths, dtype=np.int64)

    def sums(self) -> np.ndarray:
        """Per-window field sums, shape ``(W, num_fields)``."""
        sums = list(self._sums)
        if self._acc_epochs:
            sums.append(self._acc.copy())
        if not sums:
            return np.zeros((0, self.num_fields))
        return np.stack(sums)

    def rows(self) -> np.ndarray:
        """Per-window, per-epoch field means, shape ``(W, num_fields)``."""
        widths = self.widths()
        if widths.size == 0:
            return np.zeros((0, self.num_fields))
        return self.sums() / widths[:, None]


#: Per-replica summary fields produced by :class:`StreamingMetrics`
#: (the cacheable streaming shard payload; definitions in
#: ``docs/serving.md``).
SUMMARY_FIELDS = (
    "total_drops_per_queue",
    "drop_rate",
    "throughput",
    "mean_queue_length",
    "qlen_p50",
    "qlen_p95",
    "qlen_p99",
    "sojourn_p50",
    "sojourn_p95",
    "sojourn_p99",
)

#: Per-window series fields (replica-averaged, per-epoch means).
WINDOW_FIELDS = (
    "drop_rate",
    "throughput",
    "mean_queue_length",
    "arrival_rate",
)

_QUANTILES = (0.5, 0.95, 0.99)


class StreamingMetrics:
    """Fold batched-environment epochs into O(1)-memory statistics.

    Parameters
    ----------
    num_replicas : int
        Lock-step replica count ``E`` of the environment.
    num_states : int
        Queue state-space size ``S = B + 1``.
    service_rates : ndarray
        Per-queue service rates, shape ``(M,)`` (the sojourn proxy's
        denominator).
    delta_t : float
        Epoch length; converts per-epoch counts into per-time rates.
    window : int
        Window width in epochs for the operator series.
    max_windows : int, optional
        Window retention cap (see :class:`WindowedSeries`).

    Notes
    -----
    Per epoch the fold consumes the environment's post-epoch states
    ``(E, M)``, total drops ``(E,)`` and frozen arrival rates
    ``(E, M)``. Queue-length quantiles are exact (count histogram over
    the finite state space); the sojourn proxy — the Little's-law
    backlog-over-capacity ratio ``mean_j z_j / μ_j``, one value per
    replica per epoch — is continuous, so it goes through P² sketches.
    Throughput is expected arrivals (frozen rates × ``Δt``) minus
    realized drops, per queue per unit time. All summary statistics are
    independent of the window width; only the reporting resolution of
    the window series depends on it.
    """

    def __init__(
        self,
        num_replicas: int,
        num_states: int,
        service_rates: np.ndarray,
        delta_t: float,
        window: int,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if num_replicas < 1 or num_states < 2:
            raise ValueError("need >= 1 replica and >= 2 queue states")
        if delta_t <= 0:
            raise ValueError(f"delta_t must be > 0, got {delta_t}")
        self.num_replicas = int(num_replicas)
        self.num_states = int(num_states)
        self.service_rates = np.asarray(service_rates, dtype=np.float64)
        if self.service_rates.ndim != 1 or self.service_rates.min() <= 0:
            raise ValueError("service_rates must be positive, shape (M,)")
        self.delta_t = float(delta_t)
        self.num_queues = int(self.service_rates.size)
        self.epochs = 0
        # Queue-epochs observed (Σ M per epoch): the exposure that keeps
        # per-queue normalizations exact when autoscaling changes M
        # mid-stream. For a constant fleet this is the integer
        # M · epochs, so every summary below stays bit-identical to the
        # fixed-M arithmetic it replaced.
        self._queue_epochs = 0
        self._qlen_counts = np.zeros(
            (self.num_replicas, self.num_states), dtype=np.int64
        )
        self._drops = np.zeros(self.num_replicas)
        self._arrivals = np.zeros(self.num_replicas)
        self._qlen_sum = np.zeros(self.num_replicas)
        # One lock-step P² batch covering every (replica, quantile) pair.
        self._sojourn = _P2Batch(
            np.tile(np.asarray(_QUANTILES), self.num_replicas)
        )
        self.windows = WindowedSeries(
            window, len(WINDOW_FIELDS), max_windows=max_windows
        )

    def observe_epoch(
        self,
        states: np.ndarray,
        drops_total: np.ndarray,
        arrival_rates: np.ndarray,
    ) -> None:
        """Fold one epoch of every replica."""
        states = np.asarray(states)
        drops_total = np.asarray(drops_total, dtype=np.float64)
        arrival_rates = np.asarray(arrival_rates, dtype=np.float64)
        e, m = self.num_replicas, self.num_queues
        if states.shape != (e, m):
            raise ValueError(f"states must be ({e}, {m}), got {states.shape}")
        if drops_total.shape != (e,) or arrival_rates.shape != (e, m):
            raise ValueError("drops_total / arrival_rates shape mismatch")
        offsets = np.arange(e, dtype=np.int64)[:, None] * self.num_states
        self._qlen_counts += np.bincount(
            (states + offsets).ravel(), minlength=e * self.num_states
        ).reshape(e, self.num_states)
        self._drops += drops_total
        arrivals = arrival_rates.sum(axis=1) * self.delta_t
        self._arrivals += arrivals
        mean_qlen = states.mean(axis=1)
        self._qlen_sum += mean_qlen
        sojourn = (states / self.service_rates[None, :]).mean(axis=1)
        self._sojourn.add(np.repeat(sojourn, len(_QUANTILES)))
        self.epochs += 1
        self._queue_epochs += m
        span = m * self.delta_t
        self.windows.add_epoch(
            np.asarray(
                [
                    float(drops_total.mean()) / span,
                    float((arrivals - drops_total).mean()) / span,
                    float(mean_qlen.mean()),
                    float(arrival_rates.sum(axis=1).mean()) / m,
                ]
            )
        )

    def resize(self, service_rates: np.ndarray) -> None:
        """Adopt a new fleet size mid-stream (closed-loop autoscaling).

        Subsequent :meth:`observe_epoch` calls expect ``(E, M_new)``
        arrays; all accumulated statistics stay valid because every
        per-queue normalization divides by the observed queue-epochs,
        not a fixed ``M``.
        """
        service_rates = np.asarray(service_rates, dtype=np.float64)
        if service_rates.ndim != 1 or service_rates.size < 1:
            raise ValueError("service_rates must be 1-D and non-empty")
        if service_rates.min() <= 0:
            raise ValueError("service rates must be > 0")
        self.service_rates = service_rates.copy()
        self.num_queues = int(service_rates.size)

    def observe_extra_drops(self, drops: np.ndarray) -> None:
        """Account drops outside the epoch kernel (autoscale handoff
        overflow), shape ``(E,)``.

        The mass lands in the summary totals *and* the open window of
        the operator series (as drop rate over the current fleet's
        epoch span, mirroring :meth:`observe_epoch`'s normalization),
        so drained-queue losses are visible in ``run_stream`` window
        rows — not only in the resize call's return value.
        """
        drops = np.asarray(drops, dtype=np.float64)
        if drops.shape != (self.num_replicas,):
            raise ValueError(
                f"drops must be ({self.num_replicas},), got {drops.shape}"
            )
        if drops.min() < 0:
            raise ValueError("drop counts must be >= 0")
        self._drops += drops
        rate = float(drops.mean()) / (self.num_queues * self.delta_t)
        # Dropped jobs were counted as arrivals when their epoch folded,
        # so the same mass leaves the throughput field.
        self.windows.add_partial(np.asarray([rate, -rate, 0.0, 0.0]))

    # ------------------------------------------------------------------
    def _qlen_quantiles(self) -> np.ndarray:
        """Exact per-replica queue-length quantiles, ``(E, len(Q))``."""
        totals = self._qlen_counts.sum(axis=1, keepdims=True)
        cdf = np.cumsum(self._qlen_counts, axis=1) / np.maximum(totals, 1)
        out = np.empty((self.num_replicas, len(_QUANTILES)))
        for j, q in enumerate(_QUANTILES):
            out[:, j] = np.argmax(cdf >= q - 1e-12, axis=1)
        return out

    def summaries(self) -> np.ndarray:
        """Per-replica summary matrix, shape ``(E, len(SUMMARY_FIELDS))``.

        Row order follows :data:`SUMMARY_FIELDS`. Every entry is a pure
        fold of the observed epochs — bit-identical for any window
        width (tested).
        """
        if self.epochs == 0:
            raise ValueError("no epochs observed")
        e = self.num_replicas
        # Exposure-based spans: identical to M · epochs · Δt (and to an
        # exact float M divisor) while the fleet is constant, correct
        # when autoscaling varied it.
        span = self._queue_epochs * self.delta_t
        mean_m = self._queue_epochs / self.epochs
        qlen_q = self._qlen_quantiles()
        sojourn_q = self._sojourn.values().reshape(e, len(_QUANTILES))
        out = np.empty((e, len(SUMMARY_FIELDS)))
        out[:, 0] = self._drops / mean_m
        out[:, 1] = self._drops / span
        out[:, 2] = (self._arrivals - self._drops) / span
        out[:, 3] = self._qlen_sum / self.epochs
        out[:, 4:7] = qlen_q
        out[:, 7:10] = sojourn_q
        return out
