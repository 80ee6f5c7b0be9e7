"""Figure 4: finite-system performance of the MF policy vs system size.

For each panel (one per ``Δt ∈ {1, 3, 5, 7, 10}``) the paper sweeps the
number of queues ``M`` with ``N = M²`` clients, evaluates the learned MF
policy in the finite system over ~500 time units (``T_e = round(500/Δt)``
epochs, ``n`` Monte-Carlo runs, 95% CIs) and draws the mean-field MDP
value of the same policy as a horizontal reference: as ``M`` grows the
finite-system drops approach the mean-field value, validating the
formulation (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import paper_system_config
from repro.execution import ExecutionContext
from repro.experiments.pretrained import get_mf_policy
from repro.experiments.runner import MonteCarloResult
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.rl.evaluation import evaluate_policy_mfc
from repro.utils.tables import format_table, series_to_csv

if TYPE_CHECKING:
    from repro.policies.base import UpperLevelPolicy

__all__ = ["Fig4Result", "run_fig4"]

PAPER_M_GRID = (100, 200, 400, 600, 800, 1000)
PAPER_DELTA_TS = (1.0, 3.0, 5.0, 7.0, 10.0)


@dataclass
class Fig4Result:
    """One Figure 4 panel: drops over ``M`` plus the mean-field value."""

    delta_t: float
    m_grid: tuple[int, ...]
    n_values: tuple[int, ...]
    results: list[MonteCarloResult]
    mean_field_value: float
    policy_source: str

    def gaps(self) -> np.ndarray:
        """|finite mean − mean-field value| per grid point."""
        return np.asarray(
            [abs(r.mean_drops - self.mean_field_value) for r in self.results]
        )

    def converges(self) -> bool:
        """Largest-system gap no larger than the smallest-system gap."""
        gaps = self.gaps()
        return bool(gaps[-1] <= gaps[0] + 1e-12)

    def to_csv(self) -> str:
        rows = [
            [m, n, r.mean_drops, r.interval.lower, r.interval.upper,
             self.mean_field_value]
            for m, n, r in zip(self.m_grid, self.n_values, self.results)
        ]
        return series_to_csv(
            ["M", "N", "mean_drops", "ci_low", "ci_high", "mf_value"], rows
        )

    def format_table(self) -> str:
        rows = [
            [m, n, r.mean_drops, f"±{r.interval.half_width:.3g}"]
            for m, n, r in zip(self.m_grid, self.n_values, self.results)
        ]
        rows.append(["∞ (MFC)", "∞", self.mean_field_value, "exact model"])
        return format_table(
            ["M", "N", "avg packet drops", "95% CI"],
            rows,
            title=(
                f"Figure 4 panel Δt={self.delta_t:g} — MF policy "
                f"({self.policy_source}), finite system vs mean-field value"
            ),
        )


def run_fig4(
    delta_t: float = 5.0,
    m_grid: tuple[int, ...] = (50, 100, 200),
    num_runs: int = 10,
    policy: "UpperLevelPolicy | None" = None,
    clients_of_m=None,
    mf_eval_episodes: int = 50,
    seed: int = 0,
    context: ExecutionContext | None = None,
) -> Fig4Result:
    """Regenerate one Figure 4 panel (scaled grid by default).

    ``clients_of_m`` maps ``M`` to ``N`` and defaults to the paper's
    ``N = M²``. ``context`` (an
    :class:`repro.execution.ExecutionContext`) carries the execution
    knobs: ``workers > 1`` shards the whole ``M``-grid (all replica
    chunks of all sweep points) across one process pool, bit-identical
    to the in-process sweep; the mean-field reference value is cheap and
    stays in-process either way. ``store`` attaches a content-addressed
    shard cache (see :mod:`repro.store`) so repeated or overlapping
    panel runs skip already-computed replica chunks. ``sim_backend``
    picks the epoch kernel (``"numpy"``, ``"numba"``, ``"auto"``; see
    :mod:`repro.queueing.backends`) without changing any statistic, and
    ``max_batch_replicas`` the replica chunk size (default 64).
    """
    from repro.experiments.parallel import EvalRequest, SweepExecutor

    ctx = context if context is not None else ExecutionContext()

    if clients_of_m is None:
        clients_of_m = lambda m: m * m  # noqa: E731 - tiny local default
    if policy is None:
        policy, source = get_mf_policy(delta_t, seed=seed)
    else:
        source = "caller-supplied"

    n_values: list[int] = []
    num_epochs = max(1, round(500.0 / delta_t))
    requests: list[EvalRequest] = []
    for m in m_grid:
        n = int(clients_of_m(m))
        cfg = paper_system_config(
            delta_t=delta_t, num_queues=m, num_clients=n
        ).with_updates(monte_carlo_runs=num_runs)
        requests.append(
            EvalRequest(
                config=cfg,
                policy=policy,
                num_runs=num_runs,
                num_epochs=num_epochs,
                seed=seed,
                max_batch_replicas=ctx.resolved_max_batch_replicas(),
                sim_backend=ctx.sim_backend,
            )
        )
        n_values.append(n)
    results: list[MonteCarloResult] = SweepExecutor(context=ctx).run(requests)

    # Mean-field reference (the red dotted line): expected cumulative
    # drops of the same policy in the limiting MDP over the same horizon.
    mf_cfg = paper_system_config(delta_t=delta_t, num_queues=m_grid[-1])
    mf_env = MeanFieldEnv(mf_cfg, horizon=num_epochs, seed=seed)
    mf_ci = evaluate_policy_mfc(
        mf_env, policy, episodes=mf_eval_episodes, seed=seed
    )
    return Fig4Result(
        delta_t=delta_t,
        m_grid=tuple(m_grid),
        n_values=tuple(n_values),
        results=results,
        mean_field_value=-mf_ci.mean,  # returns are −drops
        policy_source=source,
    )
