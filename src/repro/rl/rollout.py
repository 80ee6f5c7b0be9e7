"""The training batch produced by experience collection.

:class:`repro.rl.vector_rollout.VectorRolloutCollector` fills one
:class:`RolloutBatch` per PPO iteration: transitions, GAE advantages
and value targets, plus the completed-episode undiscounted returns
plotted on the paper's Figure 3 training curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RolloutBatch"]


@dataclass
class RolloutBatch:
    """One training batch of transitions plus derived targets."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray
    advantages: np.ndarray
    value_targets: np.ndarray
    episode_returns: list[float]

    def __len__(self) -> int:
        return self.obs.shape[0]

    def minibatch_indices(
        self, minibatch_size: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Shuffled index blocks covering the batch once."""
        perm = rng.permutation(len(self))
        return [
            perm[start : start + minibatch_size]
            for start in range(0, len(self), minibatch_size)
        ]
