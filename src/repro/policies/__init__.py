"""Upper-level load-balancing policies ``π̃ : P(Z) × Λ → H``.

All policies — the static baselines JSQ(d)/RND/SED(d), constant rules
found by direct optimization, and the learned neural MFC policy — share
one interface (:class:`repro.policies.base.UpperLevelPolicy`): given the
(empirical or limiting) queue-state distribution and the current arrival
mode they emit a lower-level decision rule ``h``. The same object can
therefore drive both the mean-field MDP and the finite ``N, M`` system
(Algorithm 1 / Figure 2 of the paper).
"""

from repro.policies.base import UpperLevelPolicy
from repro.policies.static import (
    ConstantRulePolicy,
    JoinShortestQueuePolicy,
    RandomPolicy,
    ThresholdPolicy,
)
from repro.policies.learned import DirichletMeanPolicy, NeuralPolicy

__all__ = [
    "UpperLevelPolicy",
    "ConstantRulePolicy",
    "JoinShortestQueuePolicy",
    "RandomPolicy",
    "ThresholdPolicy",
    "NeuralPolicy",
    "DirichletMeanPolicy",
]
