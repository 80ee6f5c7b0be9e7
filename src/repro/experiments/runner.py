"""Shared Monte-Carlo evaluation machinery for the figure experiments.

The paper evaluates every policy with ``n`` independent simulations of
the finite system and reports the mean cumulative per-queue packet drops
with 95% confidence intervals. :func:`evaluate_policy_finite` is that
loop; :func:`policy_suite` builds the standard comparison set
(MF / JSQ(2) / RND) used by Figures 5 and 6.

The ``n`` replicas run in lock-step through
:class:`repro.queueing.batched_env.BatchedFiniteSystemEnv` (queue states
``(E, M)``, one kernel call per epoch for the whole ensemble) — the
Figure 4-6 seed- and ``N``-sweeps all flow through this path. Replicas
are chunked (``max_batch_replicas``) so the ``(E, N, d)``
client-sampling buffers stay bounded for the paper's largest
``N = 10^6`` settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import SystemConfig
from repro.execution import ExecutionContext
from repro.utils.stats import ConfidenceInterval

if TYPE_CHECKING:
    from repro.policies.base import UpperLevelPolicy

__all__ = ["MonteCarloResult", "evaluate_policy_finite", "policy_suite"]


@dataclass
class MonteCarloResult:
    """Aggregate of ``n`` finite-system evaluation episodes."""

    policy_name: str
    config: SystemConfig
    drops: np.ndarray  # per-run cumulative per-queue drops
    interval: ConfidenceInterval

    @property
    def mean_drops(self) -> float:
        return self.interval.mean


def evaluate_policy_finite(
    config: SystemConfig,
    policy: "UpperLevelPolicy",
    num_runs: int | None = None,
    num_epochs: int | None = None,
    seed=0,
    env_cls=None,
    env_kwargs: dict | None = None,
    context: ExecutionContext | None = None,
) -> MonteCarloResult:
    """Monte-Carlo estimate of cumulative per-queue drops (Figures 4-6).

    The runs are simulated as lock-step replicas of ``env_cls`` (any
    :class:`repro.queueing.batched_env._BatchedQueueSystemBase`
    subclass, default :class:`BatchedFiniteSystemEnv`) in chunks of at
    most ``context.max_batch_replicas``; each chunk draws from its own
    generator spawned from ``seed``.

    ``context`` (an :class:`repro.execution.ExecutionContext`) carries
    the execution knobs. ``workers > 1`` shards the replica chunks
    across a process pool via
    :class:`repro.experiments.parallel.SweepExecutor`; the random
    streams are a function of ``seed`` and the chunk layout only, so the
    result is bit-identical to ``workers=1`` (which stays entirely
    in-process). ``store`` attaches a content-addressed
    :class:`repro.store.store.ExperimentStore`: previously computed
    replica chunks are reused instead of simulated, and fresh chunks are
    persisted for the next run — merged results stay bit-identical
    either way. ``sim_backend`` selects the epoch kernel from
    :mod:`repro.queueing.backends` (``"numpy"``, ``"numba"`` or
    ``"auto"``); contract-preserving kernels leave the result
    bit-identical.
    """
    # Lazy import: parallel builds on this module's result type. The
    # replica-chunk layout and SeedSequence spawning live in ONE place
    # (repro.experiments.parallel); the ``workers=1`` executor is the
    # serial path, not a parallel variant of it, so there is no second
    # copy of the chunk/seed logic whose drift could silently break the
    # bit-identity guarantee.
    from repro.experiments.parallel import EvalRequest, SweepExecutor

    ctx = context if context is not None else ExecutionContext()
    request = EvalRequest(
        config=config,
        policy=policy,
        num_runs=num_runs,
        num_epochs=num_epochs,
        seed=seed,
        max_batch_replicas=ctx.resolved_max_batch_replicas(),
        env_cls=env_cls,
        env_kwargs=env_kwargs or {},
        sim_backend=ctx.sim_backend,
    )
    return SweepExecutor(context=ctx).run([request])[0]


def policy_suite(
    config: SystemConfig,
    mf_policy: "UpperLevelPolicy | None" = None,
) -> dict[str, "UpperLevelPolicy"]:
    """The paper's comparison set: MF (if given), JSQ(d), RND."""
    from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy

    suite: dict[str, "UpperLevelPolicy"] = {}
    if mf_policy is not None:
        suite["MF"] = mf_policy
    suite[f"JSQ({config.d})"] = JoinShortestQueuePolicy(
        config.num_queue_states, config.d
    )
    suite["RND"] = RandomPolicy(config.num_queue_states, config.d)
    return suite
