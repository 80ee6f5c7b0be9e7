"""Policy evaluation helpers for the mean-field MDP.

The only stochasticity in the MFC MDP is the arrival-mode chain, so a
modest number of rollouts gives tight estimates of the expected
undiscounted episode return (the paper's Figure 3 y-axis).

Evaluation episodes are independent, so they run in *lock-step*: all
``E`` episode environments advance together through one
:meth:`~repro.meanfield.mfc_env.MeanFieldEnv.step_batch` call per epoch,
and the upper-level policy is queried once per epoch for the whole
ensemble (``decision_rules_batch`` — one network forward pass for neural
policies). Each episode keeps its own spawned generator, so the mode
trajectories match a one-episode-at-a-time loop of
:meth:`~repro.meanfield.mfc_env.MeanFieldEnv.rollout_return` on the same
generators exactly and, for deterministic policies, the returns agree up
to floating-point association in the batched forward pass (tested).
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.meanfield.mfc_env import MeanFieldEnv
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.stats import ConfidenceInterval, mean_confidence_interval

if TYPE_CHECKING:  # import cycle: policies build on top of the RL stack
    from repro.policies.base import UpperLevelPolicy

__all__ = [
    "evaluate_policy_mfc",
    "evaluate_policies_mfc",
    "rollout_returns_lockstep",
]


def rollout_returns_lockstep(
    env: MeanFieldEnv,
    policy: "UpperLevelPolicy",
    episode_seeds,
    num_steps: int | None = None,
    discount: float | None = None,
    policy_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-episode returns of ``E`` lock-step MFC episodes.

    ``episode_seeds`` is a sequence of per-episode seeds/generators (one
    clone of ``env`` each). Every epoch issues a single batched policy
    query over the ``(E, S)`` stacked mean fields and advances all
    episodes with one
    :meth:`~repro.meanfield.mfc_env.MeanFieldEnv.step_batch` call. The
    policy query consumes ``policy_rng`` — stochastic policies need one
    (the per-episode generators only drive the environments).
    Stationary policies are queried once in total.
    """
    seeds = list(episode_seeds)
    if not seeds:
        raise ValueError("need at least one episode seed")
    envs = [env.clone(seed=as_generator(s)) for s in seeds]
    for clone in envs:
        clone.reset()
    steps = int(num_steps if num_steps is not None else env.horizon)
    totals = np.zeros(len(envs))
    weight = 1.0
    # Live-age policies get each episode's current delay-regime context
    # (a deterministic function of the regime index — no extra draws);
    # environments without the hook fall back to the frozen context.
    live_age = bool(
        getattr(getattr(policy, "features", None), "live_age", False)
    ) and all(hasattr(clone, "live_age_context") for clone in envs)
    if policy.is_stationary():
        shared_rule = policy.decision_rule(
            envs[0].state.nu, envs[0].state.lam_mode, policy_rng
        )
    for _ in range(steps):
        if policy.is_stationary():
            rules = shared_rule
        else:
            nus = np.stack([clone.state.nu for clone in envs])
            modes = np.asarray([clone.state.lam_mode for clone in envs])
            if live_age:
                contexts = np.asarray(
                    [clone.live_age_context() for clone in envs]
                )
                rules = policy.decision_rules_batch(
                    nus, modes, policy_rng, age_contexts=contexts
                )
            else:
                rules = policy.decision_rules_batch(nus, modes, policy_rng)
        fleet = type(envs[0]).step_batch(envs, rules)
        totals += weight * fleet.rewards
        if discount is not None:
            weight *= discount
        if fleet.dones.any():  # shared horizon: all replicas truncate together
            break
    return totals


def evaluate_policy_mfc(
    env: MeanFieldEnv,
    policy: "UpperLevelPolicy",
    episodes: int = 20,
    num_steps: int | None = None,
    discount: float | None = None,
    seed: int | np.random.Generator | None = None,
    level: float = 0.95,
) -> ConfidenceInterval:
    """Mean (un)discounted return of ``policy`` over fresh MFC episodes."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    # episodes env generators + one policy-query generator; the first
    # `episodes` children match a plain spawn_generators(seed, episodes).
    rngs = spawn_generators(seed, episodes + 1)
    returns = rollout_returns_lockstep(
        env,
        policy,
        rngs[:episodes],
        num_steps=num_steps,
        discount=discount,
        policy_rng=rngs[episodes],
    )
    return mean_confidence_interval(returns, level=level)


def evaluate_policies_mfc(
    env: MeanFieldEnv,
    policies: dict[str, "UpperLevelPolicy"],
    episodes: int = 20,
    num_steps: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> dict[str, ConfidenceInterval]:
    """Evaluate several policies on a *common* set of arrival-mode seeds
    (common random numbers sharpen the comparison)."""
    root = as_generator(seed)
    episode_seeds = [int(root.integers(2**62)) for _ in range(episodes)]
    results: dict[str, ConfidenceInterval] = {}
    for name, policy in policies.items():
        returns = rollout_returns_lockstep(
            env, policy, episode_seeds, num_steps=num_steps, policy_rng=root
        )
        results[name] = mean_confidence_interval(returns)
    return results
