"""Figure 5: total packet drops vs synchronization delay, per policy.

For each panel ``M ∈ {400, 600, 800, 1000}`` (``N = M²``) the paper
sweeps ``Δt ∈ {1, ..., 10}``, keeps the total running time ≈ 500 time
units (``T_e = round(500/Δt)`` epochs) and compares the per-``Δt``
trained MF policy against JSQ(2) and RND with 95% CIs. Expected shape:
drops grow with ``Δt`` for all policies; JSQ(2) wins for ``Δt ≤ 2``; the
MF policy matches or beats both baselines from intermediate delays on;
RND is flattest but worst at small delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import paper_system_config
from repro.execution import ExecutionContext
from repro.experiments.pretrained import get_mf_policy
from repro.experiments.runner import MonteCarloResult, policy_suite
from repro.utils.tables import format_table, series_to_csv

if TYPE_CHECKING:
    from repro.policies.base import UpperLevelPolicy

__all__ = ["Fig5Result", "run_fig5"]

PAPER_M_PANELS = (400, 600, 800, 1000)
PAPER_DELTA_TS = tuple(float(x) for x in range(1, 11))


@dataclass
class Fig5Result:
    """One Figure 5 panel: drops per ``(Δt, policy)``."""

    num_queues: int
    num_clients_rule: str
    delta_ts: tuple[float, ...]
    results: dict[str, list[MonteCarloResult]]  # policy name -> per-Δt
    policy_sources: dict[float, str]

    def mean_series(self, policy_name: str) -> np.ndarray:
        return np.asarray([r.mean_drops for r in self.results[policy_name]])

    def winner_at(self, delta_t: float) -> str:
        idx = self.delta_ts.index(delta_t)
        return min(self.results, key=lambda name: self.results[name][idx].mean_drops)

    def to_csv(self) -> str:
        headers = ["delta_t"]
        for name in self.results:
            headers += [f"{name}_mean", f"{name}_lo", f"{name}_hi"]
        rows = []
        for i, dt in enumerate(self.delta_ts):
            row: list[object] = [dt]
            for name in self.results:
                r = self.results[name][i]
                row += [r.mean_drops, r.interval.lower, r.interval.upper]
            rows.append(row)
        return series_to_csv(headers, rows)

    def format_table(self) -> str:
        headers = ["Δt", *self.results.keys(), "winner"]
        rows = []
        for i, dt in enumerate(self.delta_ts):
            row: list[object] = [dt]
            for name in self.results:
                r = self.results[name][i]
                row.append(f"{r.mean_drops:.3g}±{r.interval.half_width:.2g}")
            row.append(self.winner_at(dt))
            rows.append(row)
        return format_table(
            headers,
            rows,
            title=(
                f"Figure 5 panel M={self.num_queues}, "
                f"N={self.num_clients_rule} — total per-queue drops over "
                "~500 time units"
            ),
        )


def run_fig5(
    num_queues: int = 100,
    delta_ts: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 7.0, 10.0),
    num_runs: int = 10,
    clients_of_m=None,
    mf_policies: "dict[float, UpperLevelPolicy] | None" = None,
    per_packet_randomization: bool = True,
    seed: int = 0,
    context: ExecutionContext | None = None,
) -> Fig5Result:
    """Regenerate one Figure 5 panel (scaled grid by default).

    ``mf_policies`` may map each ``Δt`` to a caller-trained policy;
    missing entries are resolved via the pretrained registry.
    ``per_packet_randomization`` defaults to the paper's experimental
    setting (remark below Eq. 4: packets re-sample their slot); set it
    to False for the committed-choice model of Eq. (5).

    The whole ``(Δt × policy)`` grid runs on one
    :class:`repro.experiments.parallel.SweepExecutor` configured by
    ``context`` (an :class:`repro.execution.ExecutionContext`): with
    ``workers > 1`` every replica chunk of every cell competes for the
    same process pool, and the per-cell statistics are bit-identical to
    the in-process ``workers=1`` sweep. ``store`` attaches a
    content-addressed shard cache (see :mod:`repro.store`): chunks
    already computed by a previous panel run — or by any sweep sharing
    cells with this grid — are merged from the store instead of
    simulated. ``sim_backend`` picks the epoch kernel (``"numpy"``,
    ``"numba"``, ``"auto"``) without changing any statistic.
    """
    from repro.experiments.parallel import EvalRequest, SweepExecutor

    ctx = context if context is not None else ExecutionContext()
    if clients_of_m is None:
        clients_of_m = lambda m: m * m  # noqa: E731
        clients_rule = "M^2"
    else:
        clients_rule = "custom"
    num_clients = int(clients_of_m(num_queues))

    requests: list[EvalRequest] = []
    cells: list[str] = []
    policy_sources: dict[float, str] = {}
    for dt in delta_ts:
        cfg = paper_system_config(
            delta_t=dt, num_queues=num_queues, num_clients=num_clients
        )
        if mf_policies is not None and dt in mf_policies:
            mf_policy, source = mf_policies[dt], "caller-supplied"
        else:
            mf_policy, source = get_mf_policy(dt, seed=seed)
        policy_sources[dt] = source
        suite = policy_suite(cfg, mf_policy=mf_policy)
        num_epochs = max(1, round(500.0 / dt))
        for name, policy in suite.items():
            requests.append(
                EvalRequest(
                    config=cfg,
                    policy=policy,
                    num_runs=num_runs,
                    num_epochs=num_epochs,
                    seed=seed,
                    env_kwargs={
                        "per_packet_randomization": per_packet_randomization
                    },
                    sim_backend=ctx.sim_backend,
                )
            )
            cells.append(name)

    results: dict[str, list[MonteCarloResult]] = {}
    for name, res in zip(cells, SweepExecutor(context=ctx).run(requests)):
        results.setdefault(name, []).append(res)
    return Fig5Result(
        num_queues=num_queues,
        num_clients_rule=clients_rule,
        delta_ts=tuple(delta_ts),
        results=results,
        policy_sources=policy_sources,
    )
