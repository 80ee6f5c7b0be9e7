"""Figure 5: total packet drops vs synchronization delay, per policy.

For each panel ``M ∈ {400, 600, 800, 1000}`` (``N = M²``) the paper
sweeps ``Δt ∈ {1, ..., 10}``, keeps the total running time ≈ 500 time
units (``T_e = round(500/Δt)`` epochs) and compares the per-``Δt``
trained MF policy against JSQ(2) and RND with 95% CIs. Expected shape:
drops grow with ``Δt`` for all policies; JSQ(2) wins for ``Δt ≤ 2``; the
MF policy matches or beats both baselines from intermediate delays on;
RND is flattest but worst at small delays.

A panel is the registered ``paper-baseline`` scenario swept at the
panel's ``M`` and client rule (:func:`repro.scenarios.run_scenario`), so
its requests, shard keys and numbers are the scenario's own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SystemConfig
from repro.execution import ExecutionContext
from repro.experiments.pretrained import get_mf_policy
from repro.experiments.runner import ScenarioSweepResult, policy_suite

__all__ = ["Fig5Result", "run_fig5"]


@dataclass
class Fig5Result(ScenarioSweepResult):
    """One Figure 5 panel: drops per ``(Δt, policy)``."""

    num_clients_rule: str

    @property
    def title(self) -> str:
        return (
            f"Figure 5 panel M={self.num_queues}, "
            f"N={self.num_clients_rule} — total per-queue drops over "
            "~500 time units"
        )


def run_fig5(
    num_queues: int = 100,
    delta_ts: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 7.0, 10.0),
    num_runs: int = 10,
    clients_of_m=None,
    seed: int = 0,
    context: ExecutionContext | None = None,
) -> Fig5Result:
    """Regenerate one Figure 5 panel (scaled grid by default).

    Sweeps ``paper-baseline`` (per-packet slot re-randomization, the
    paper's experimental setting) at ``num_queues`` with
    ``N = clients_of_m(M)`` (default ``M²``). The MF policy at each ``Δt`` is
    :func:`repro.experiments.pretrained.get_mf_policy` at ``seed``, which
    picks the CEM stand-in where no checkpoint is packaged.

    ``context`` (an :class:`repro.execution.ExecutionContext`) carries
    the execution knobs of the one sharded sweep: ``workers`` never
    changes a statistic, ``store`` merges chunks already computed by a
    previous run — this panel's, or the scenario's — instead of
    simulating them, ``sim_backend`` picks the epoch kernel and
    ``max_batch_replicas`` the replica chunk size.
    """
    from repro.scenarios import get_scenario, run_scenario

    def build_policies(config: SystemConfig):
        mf_policy, _source = get_mf_policy(config.delta_t, seed=seed)
        return policy_suite(config, mf_policy=mf_policy)

    spec = replace(
        get_scenario("paper-baseline"),
        clients_of_m=clients_of_m,
        build_policies=build_policies,
    )
    sweep = run_scenario(
        spec,
        delta_ts=delta_ts,
        num_queues=num_queues,
        num_runs=num_runs,
        seed=seed,
        context=context,
    )
    return Fig5Result(
        **vars(sweep),
        num_clients_rule="M^2" if clients_of_m is None else "custom",
    )
