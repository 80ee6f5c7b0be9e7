"""Behavior cloning of decision rules into the Gaussian policy network.

Used as a warm start for PPO fine-tuning in the scaled-down training
pipeline: a strong *constant* decision rule (e.g. found by CEM on the
mean-field MDP) is distilled into the network by regressing the Gaussian
mean onto the rule's raw table over a set of observations visited by the
rule itself. PPO then adds state feedback on top. The full-budget paper
pipeline (pure PPO from scratch) remains available — the warm start is a
compute trade-off, not a modelling change, and is ablated in the
benches.
"""

from __future__ import annotations

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import ConstantRulePolicy
from repro.rl.nn import GaussianPolicyNetwork
from repro.rl.optim import Adam
from repro.utils.rng import as_generator

__all__ = ["collect_visited_observations", "clone_rule"]


def collect_visited_observations(
    env: MeanFieldEnv,
    rule: DecisionRule,
    episodes: int = 5,
    num_steps: int | None = None,
    seed=None,
) -> np.ndarray:
    """Observations visited by the constant-rule policy (cloning inputs)."""
    rng = as_generator(seed)
    policy = ConstantRulePolicy(rule)
    steps = int(num_steps if num_steps is not None else env.horizon)
    rows = []
    for _ in range(episodes):
        env.reset(rng)
        rows.append(env.observation())
        for _ in range(steps):
            r = policy.decision_rule(env.state.nu, env.state.lam_mode, rng)
            _, _, done, _ = env.step(r)
            rows.append(env.observation())
            if done:
                break
    return np.asarray(rows)


def clone_rule(
    network: GaussianPolicyNetwork,
    rule: DecisionRule,
    observations: np.ndarray,
    epochs: int = 200,
    learning_rate: float = 1e-3,
    batch_size: int = 256,
    seed=None,
) -> float:
    """Regress the network mean onto ``rule``'s raw table; returns final MSE.

    The Gaussian mean is trained so that
    ``DecisionRule.from_raw(mu(obs)) ≈ rule`` at every observation. Since
    ``from_raw`` renormalizes, matching the table entries directly is
    sufficient (the table is already on the simplex, and ``from_raw`` is
    the identity on it up to the probability floor). Training runs at
    the network's dtype.
    """
    rng = as_generator(seed)
    observations = np.asarray(observations, dtype=network.dtype)
    if observations.ndim != 2 or observations.shape[1] != network.obs_dim:
        raise ValueError(
            f"observations must be (n, {network.obs_dim}), got "
            f"{observations.shape}"
        )
    target = rule.flat().astype(network.dtype)
    if target.size != network.action_dim:
        raise ValueError(
            f"rule has {target.size} parameters, network expects "
            f"{network.action_dim}"
        )
    optimizer = Adam(network.trunk.buffer, learning_rate)
    n = observations.shape[0]
    final_mse = np.inf
    for _ in range(epochs):
        idx = rng.permutation(n)[: min(batch_size, n)]
        batch = observations[idx]
        mu, cache = network.trunk.forward(batch)
        err = mu - target[None, :]
        final_mse = float(np.mean(err**2))
        grad_mu = 2.0 * err / err.size
        optimizer.step(network.trunk.backward(cache, grad_mu))
    return final_mse
