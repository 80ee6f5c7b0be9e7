"""Numerical validation of Theorem 1 (mean-field convergence).

Theorem 1 states ``|J(π̂) - J^{N,M}(π̂)| → 0`` as ``N, M → ∞`` for any
stationary deterministic policy, via the two intermediate comparisons
``J ↔ J^M`` (infinite clients, finitely many queues) and
``J^M ↔ J^{N,M}``. The proof conditions on the arrival-mode sequence;
this module mirrors that: it replays one scripted mode sequence through

* the deterministic mean-field recursion ``(ν_t, D_t)``,
* the infinite-client finite-queue system ``(H^M_t, D^M_t)``, and
* the full finite system ``(H^{N,M}_t, D^{N,M}_t)``,

and reports per-step ``l1`` gaps ``‖H_t - ν_t‖₁`` and drop gaps — the
quantities that power the Figure 4 bench and the A5 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.meanfield.delayed import delayed_mean_field_trajectory
from repro.queueing.arrivals import MarkovModulatedRate, ScriptedRate
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    BatchedInfiniteClientEnv,
)
from repro.queueing.delays import DeterministicDelay
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # import cycle: policies build on top of the mean-field model
    from repro.policies.base import UpperLevelPolicy

__all__ = [
    "mean_field_trajectory",
    "TrajectoryGap",
    "trajectory_gap",
]


def mean_field_trajectory(
    config: SystemConfig,
    policy: "UpperLevelPolicy",
    mode_sequence: np.ndarray,
    arrival_levels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic MFC trajectory under a scripted mode sequence.

    The paper's synchronous broadcast: the age-0
    :func:`repro.meanfield.delayed.delayed_mean_field_trajectory`, whose
    epochs are exactly :func:`repro.meanfield.discretization.epoch_update`.
    Returns ``(nus, drops)`` where ``nus`` has shape ``(T+1, S)`` and
    ``drops`` shape ``(T,)`` (expected per-queue drops per epoch).
    """
    return delayed_mean_field_trajectory(
        config,
        policy,
        mode_sequence,
        DeterministicDelay(0),
        arrival_levels=arrival_levels,
    )


@dataclass
class TrajectoryGap:
    """Per-step gaps between a simulated system and the mean-field limit."""

    l1_gaps: np.ndarray  # ‖H_t − ν_t‖₁ at t = 0..T
    drop_gaps: np.ndarray  # |D̂_t − D_t| at t = 0..T−1
    total_drops_system: float
    total_drops_mean_field: float

    @property
    def sup_l1_gap(self) -> float:
        return float(self.l1_gaps.max())

    @property
    def mean_l1_gap(self) -> float:
        return float(self.l1_gaps.mean())

    @property
    def total_drop_gap(self) -> float:
        return abs(self.total_drops_system - self.total_drops_mean_field)


def trajectory_gap(
    config: SystemConfig,
    policy: "UpperLevelPolicy",
    num_epochs: int,
    system: str = "finite",
    mode_sequence: np.ndarray | None = None,
    seed=None,
) -> TrajectoryGap:
    """Simulate one episode and compare it to the mean-field trajectory.

    Parameters
    ----------
    system:
        ``"finite"`` for the ``N, M`` system or ``"infinite-clients"``
        for the ``M`` system of Section 2.2.
    mode_sequence:
        Arrival modes to replay; one is sampled from the config's chain
        when omitted.
    """
    rng = as_generator(seed)
    base_process = MarkovModulatedRate.from_config(config)
    if mode_sequence is None:
        mode_sequence = base_process.simulate_modes(num_epochs, rng)
    mode_sequence = np.asarray(mode_sequence, dtype=np.intp)
    if mode_sequence.size < num_epochs:
        raise ValueError("mode_sequence shorter than num_epochs")
    scripted = ScriptedRate(base_process.levels, mode_sequence)

    nus, mf_drops = mean_field_trajectory(
        config, policy, mode_sequence[:num_epochs]
    )

    env_cls = {
        "finite": BatchedFiniteSystemEnv,
        "infinite-clients": BatchedInfiniteClientEnv,
    }.get(system)
    if env_cls is None:
        raise ValueError(
            f"unknown system {system!r}; use 'finite' or 'infinite-clients'"
        )
    env = env_cls(config, num_replicas=1, arrival_process=scripted, seed=rng)

    env.reset(rng)
    l1 = np.empty(num_epochs + 1)
    drop_gaps = np.empty(num_epochs)
    sim_drops = np.empty(num_epochs)
    l1[0] = float(np.abs(env.empirical_distributions()[0] - nus[0]).sum())
    for t in range(num_epochs):
        _, _, info = env.step_with_policy(policy)
        sim_drops[t] = info["drops_per_queue"][0]
        drop_gaps[t] = abs(sim_drops[t] - mf_drops[t])
        l1[t + 1] = float(
            np.abs(env.empirical_distributions()[0] - nus[t + 1]).sum()
        )
    return TrajectoryGap(
        l1_gaps=l1,
        drop_gaps=drop_gaps,
        total_drops_system=float(sim_drops.sum()),
        total_drops_mean_field=float(mf_drops.sum()),
    )
