"""Figure 6: the sweep of Figure 5 with the ``N ≫ M`` assumption violated.

Panel (a): ``N = M`` (as many clients as queues); panel (b): ``N = M/2``.
The paper reports that the MF policy still performs well at larger
delays even though the mean-field derivation assumed ``N ≫ M``, and that
RND's performance now degrades with ``Δt`` because individual clients'
uneven sampling of queues no longer averages out within an epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.execution import ExecutionContext
from repro.experiments.fig5_delay_sweep import Fig5Result, run_fig5

if TYPE_CHECKING:
    from repro.policies.base import UpperLevelPolicy

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    """Both Figure 6 panels."""

    panel_a: Fig5Result  # N = M
    panel_b: Fig5Result  # N = M/2

    def format_table(self) -> str:
        return (
            self.panel_a.format_table()
            + "\n\n"
            + self.panel_b.format_table()
        )

    def to_csv(self) -> str:
        return (
            "# panel (a): N = M\n"
            + self.panel_a.to_csv()
            + "\n# panel (b): N = M/2\n"
            + self.panel_b.to_csv()
        )


def run_fig6(
    num_queues: int = 100,
    delta_ts: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 7.0, 10.0),
    num_runs: int = 10,
    mf_policies: "dict[float, UpperLevelPolicy] | None" = None,
    seed: int = 0,
    context: ExecutionContext | None = None,
) -> Fig6Result:
    """Regenerate both Figure 6 panels (paper uses ``M = 1000``).

    ``context`` (an :class:`repro.execution.ExecutionContext`) carries
    the execution knobs — process count, shard cache, epoch kernel —
    forwarded to each panel's sharded sweep.
    """
    ctx = context if context is not None else ExecutionContext()
    panel_a = run_fig5(
        num_queues=num_queues,
        delta_ts=delta_ts,
        num_runs=num_runs,
        clients_of_m=lambda m: m,
        mf_policies=mf_policies,
        seed=seed,
        context=ctx,
    )
    panel_a.num_clients_rule = "M"
    panel_b = run_fig5(
        num_queues=num_queues,
        delta_ts=delta_ts,
        num_runs=num_runs,
        clients_of_m=lambda m: max(1, m // 2),
        mf_policies=mf_policies,
        seed=seed,
        context=ctx,
    )
    panel_b.num_clients_rule = "M/2"
    return Fig6Result(panel_a=panel_a, panel_b=panel_b)
