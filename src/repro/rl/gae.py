"""Generalized advantage estimation (Schulman et al. 2016).

The paper uses GAE with ``λ_RL = 1`` (Table 2), which reduces to the
plain discounted-return advantage ``A_t = G_t - V(s_t)``; we implement
the general recursion so the ablation benches can vary ``λ``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compute_gae"]


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and value targets for one rollout segment.

    Parameters
    ----------
    rewards, values, dones:
        Per-step arrays of equal length ``T``. ``dones[t]`` is true when
        the episode *terminated* at step ``t`` (no bootstrapping across).
    bootstrap_value:
        ``V(s_T)`` of the state following the last step; used only when
        the segment was truncated mid-episode (``dones[-1]`` false).

    Returns
    -------
    ``(advantages, value_targets)`` with
    ``value_targets = advantages + values`` (the λ-return), the
    regression target RLlib uses for the value function.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if not (rewards.shape == values.shape == dones.shape) or rewards.ndim != 1:
        raise ValueError("rewards, values, dones must be equal-length 1-D arrays")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0,1], got {lam}")
    t_len = rewards.size
    advantages = np.zeros(t_len)
    last_gae = 0.0
    next_value = float(bootstrap_value)
    for t in range(t_len - 1, -1, -1):
        non_terminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * non_terminal * next_value - values[t]
        last_gae = delta + gamma * lam * non_terminal * last_gae
        advantages[t] = last_gae
        next_value = values[t]
    return advantages, advantages + values

