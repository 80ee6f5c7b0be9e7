"""Run a registered scenario through the sharded sweep orchestrator.

:func:`run_scenario` expands a :class:`repro.scenarios.registry.ScenarioSpec`
into one :class:`repro.experiments.parallel.EvalRequest` per
``(Δt, policy)`` cell and executes the whole grid on a single
:class:`repro.experiments.parallel.SweepExecutor`, so every replica
chunk of every sweep point competes for the same worker pool — the
per-cell statistics are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.execution import ExecutionContext
from repro.experiments.parallel import EvalRequest, SweepExecutor
from repro.scenarios.registry import ScenarioSpec, get_scenario
from repro.utils.tables import format_table, series_to_csv

if TYPE_CHECKING:
    from repro.experiments.runner import MonteCarloResult
    from repro.queueing.chaos import DegradationSchedule

__all__ = ["ScenarioSweepResult", "run_scenario"]


@dataclass
class ScenarioSweepResult:
    """One scenario sweep: drops per ``(Δt, policy)`` with 95% CIs."""

    scenario: str
    num_queues: int
    num_clients: int
    delta_ts: tuple[float, ...]
    results: "dict[str, list[MonteCarloResult]]"  # policy name -> per-Δt
    workers: int

    def mean_series(self, policy_name: str) -> np.ndarray:
        return np.asarray([r.mean_drops for r in self.results[policy_name]])

    def winner_at(self, delta_t: float) -> str:
        idx = self.delta_ts.index(delta_t)
        return min(
            self.results, key=lambda name: self.results[name][idx].mean_drops
        )

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
                f"Scenario {self.scenario} — M={self.num_queues}, "
                f"N={self.num_clients}, total per-queue drops "
                f"(workers={self.workers})"
            ),
        )


def run_scenario(
    name: str,
    delta_ts: tuple[float, ...] | None = None,
    num_queues: int | None = None,
    num_runs: int | None = None,
    seed: int = 0,
    context: ExecutionContext | None = None,
    chaos: "DegradationSchedule | None" = None,
) -> ScenarioSweepResult:
    """Evaluate one registered scenario over its delay grid.

    Parameters
    ----------
    name:
        Registered scenario name (see
        :func:`repro.scenarios.registry.available_scenarios`).
    delta_ts, num_queues, num_runs:
        Grid overrides; each defaults to the spec's frozen value
        (``num_queues`` rescales ``N`` through the spec's client rule).
    seed:
        Master seed of every sweep cell's replica streams.
    chaos:
        Optional :class:`repro.queueing.chaos.DegradationSchedule`
        injected into every sweep cell's environment (replacing any
        schedule the scenario itself embeds). The schedule enters the
        content-addressed shard keys through the environment kwargs, so
        chaos sweeps cache and resume like any other; it is validated
        against the scenario's environment before any cell runs.
    context:
        :class:`repro.execution.ExecutionContext` with the execution
        knobs — ``workers`` (process count of the shared
        :class:`SweepExecutor`; never changes the merged statistics),
        ``store`` (content-addressed shard cache, see
        :mod:`repro.store`: cells already computed by a previous run —
        or by an overlapping figure sweep — are merged from the store
        instead of simulated), ``sim_backend`` (epoch kernel for every
        cell; contract-preserving kernels never change the statistics)
        and ``max_batch_replicas`` (defaults to the spec's registered
        chunk size).

    Raises
    ------
    KeyError
        If ``name`` is not registered (the message lists the catalogue).
    """
    ctx = context if context is not None else ExecutionContext()
    spec: ScenarioSpec = get_scenario(name)
    grid = tuple(delta_ts) if delta_ts else spec.delta_ts
    runs = int(num_runs) if num_runs is not None else spec.num_runs

    requests: list[EvalRequest] = []
    cells: list[tuple[float, str]] = []
    for dt in grid:
        config = spec.config_for(dt, num_queues=num_queues)
        policies = spec.build_policies(config)
        env_kwargs = spec.env_kwargs_for(config)
        if chaos is not None:
            # Fail fast, before the pool spins up: topology events need
            # the graph environment, and queue indices must fit M.
            chaos.validate_for(
                num_queues=config.num_queues,
                supports_topology="topology" in env_kwargs,
            )
            env_kwargs = {**env_kwargs, "chaos": chaos}
        for policy_name, policy in policies.items():
            requests.append(
                EvalRequest(
                    config=config,
                    policy=policy,
                    num_runs=runs,
                    num_epochs=config.resolved_eval_length(),
                    seed=seed,
                    max_batch_replicas=ctx.resolved_max_batch_replicas(
                        spec.max_batch_replicas
                    ),
                    env_cls=spec.env_cls,
                    env_kwargs=env_kwargs,
                    sim_backend=ctx.sim_backend,
                )
            )
            cells.append((dt, policy_name))

    executor = SweepExecutor(context=ctx)
    merged = executor.run(requests)

    results: "dict[str, list[MonteCarloResult]]" = {}
    for (_dt, policy_name), result in zip(cells, merged):
        results.setdefault(policy_name, []).append(result)
    lengths = {name: len(series) for name, series in results.items()}
    if any(length != len(grid) for length in lengths.values()):
        raise RuntimeError(
            "policy suite changed across the delay grid: "
            f"{lengths} vs {len(grid)} sweep points"
        )

    reference = spec.config_for(grid[0], num_queues=num_queues)
    return ScenarioSweepResult(
        scenario=name,
        num_queues=reference.num_queues,
        num_clients=reference.num_clients,
        delta_ts=grid,
        results=results,
        workers=executor.workers,
    )
