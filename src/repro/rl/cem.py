"""Cross-entropy-method optimization of stationary decision rules.

The MFC MDP admits an optimal *stationary deterministic* upper-level
policy (paper Proposition 1). A cheap, gradient-free way to obtain a
strong stationary baseline is to restrict attention to *constant* rules
``h`` (state-independent upper policy) and optimize the ``S^d · d`` raw
parameters directly against the mean-field return with CEM. The result
interpolates between MF-JSQ and MF-RND as ``Δt`` grows and serves as

* a fast stand-in for the learned policy in quick-running benches, and
* the ablation A4 reference ("how much does state feedback buy over the
  best constant rule?").

Each generation is scored as one lock-step fleet: every candidate's
episodes are clones of the environment, and one
:meth:`~repro.meanfield.mfc_env.MeanFieldEnv.step_batch` call per epoch
moves all of them under their stacked rules. Eq. 22 and the propagator
are batch-invariant, so each row's return equals its candidate scored
alone on the same generator, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import ConstantRulePolicy
from repro.utils.rng import as_generator, spawn_generators

__all__ = ["CEMResult", "optimize_constant_rule"]


@dataclass
class CEMResult:
    """Outcome of a CEM run."""

    rule: DecisionRule
    best_return: float
    history: list[float]
    generations: int

    @property
    def policy(self) -> ConstantRulePolicy:
        return ConstantRulePolicy(self.rule, name="CEM")


def _generation_returns(
    env: MeanFieldEnv,
    candidates: np.ndarray,
    episodes: int,
    steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean undiscounted return of each candidate's constant rule.

    One fleet of ``len(candidates) × episodes`` clones of ``env``, each
    seeded by its own generator spawned from ``rng`` (row
    ``i·episodes + k`` plays candidate ``i``'s episode ``k``), steps the
    stacked rules in lock-step.
    """
    fleet = [
        env.clone(seed=child)
        for child in spawn_generators(rng, len(candidates) * episodes)
    ]
    for clone in fleet:
        clone.reset()
    rules = DecisionRule.stack_from_raw(
        np.repeat(candidates, episodes, axis=0), env.num_queue_states, env.config.d
    )
    totals = np.zeros(len(fleet))
    for _ in range(steps):
        step = type(env).step_batch(fleet, rules)
        totals += step.rewards
        if step.dones.any():  # shared horizon: every row truncates together
            break
    return totals.reshape(len(candidates), episodes).mean(axis=1)


def optimize_constant_rule(
    env: MeanFieldEnv,
    generations: int = 20,
    population: int = 32,
    elite_fraction: float = 0.25,
    episodes_per_candidate: int = 2,
    eval_steps: int | None = None,
    init_std: float = 0.3,
    min_std: float = 0.02,
    symmetrize: bool = True,
    seed: int | np.random.Generator | None = None,
) -> CEMResult:
    """Optimize a constant decision rule on the mean-field MDP with CEM.

    The search distribution is a diagonal Gaussian over raw parameters in
    ``[0, 1]`` (mapped to the simplex by
    :meth:`repro.meanfield.decision_rule.DecisionRule.from_raw`), refit
    to the elite set each generation with a std floor to avoid premature
    collapse. Initialized at the MF-JSQ table, whose basin is close to
    optimal for small ``Δt``.
    """
    if generations < 1 or population < 2:
        raise ValueError("need generations >= 1 and population >= 2")
    if not 0.0 < elite_fraction <= 1.0:
        raise ValueError("elite_fraction must lie in (0, 1]")
    rng = as_generator(seed)
    steps = int(eval_steps if eval_steps is not None else env.horizon)
    dim = env.action_size
    # Start around a JSQ/RND blend so both basins are reachable.
    jsq = DecisionRule.join_shortest(env.num_queue_states, env.config.d)
    rnd = DecisionRule.uniform(env.num_queue_states, env.config.d)
    mean = 0.5 * (jsq.flat() + rnd.flat())
    std = np.full(dim, init_std)

    n_elite = max(1, int(round(population * elite_fraction)))
    best_raw = mean.copy()
    best_return = -np.inf
    history: list[float] = []

    for _gen in range(generations):
        candidates = mean[None, :] + std[None, :] * rng.standard_normal(
            (population, dim)
        )
        returns = _generation_returns(
            env, candidates, episodes_per_candidate, steps, rng
        )
        order = np.argsort(returns)[::-1]
        elites = candidates[order[:n_elite]]
        mean = elites.mean(axis=0)
        std = np.maximum(elites.std(axis=0), min_std)
        gen_best = float(returns[order[0]])
        history.append(gen_best)
        if gen_best > best_return:
            best_return = gen_best
            best_raw = candidates[order[0]].copy()

    rule = DecisionRule.from_raw(best_raw, env.num_queue_states, env.config.d)
    if symmetrize:
        rule = rule.symmetrized()
    return CEMResult(
        rule=rule,
        best_return=best_return,
        history=history,
        generations=generations,
    )
