"""Reinforcement-learning stack (pure NumPy).

Re-implements everything the paper takes from RLlib/PyTorch: multi-layer
perceptrons with manual backpropagation, a diagonal-Gaussian policy head
with free log-std (plus a Dirichlet head for the paper's negative
ablation), Adam, generalized advantage estimation and proximal policy
optimization with clipped surrogate + adaptive KL penalty — the exact
loss family of RLlib's PPO with the Table 2 hyperparameters. A
cross-entropy-method solver for stationary decision rules is provided as
a cheap direct optimizer / ablation.
"""

from repro.rl.nn import (
    MLP,
    GaussianPolicyNetwork,
    ValueNetwork,
    widen_input_weights,
)
from repro.rl.distributions import DiagGaussian, DirichletBlocks
from repro.rl.optim import Adam, clip_grads_by_global_norm, global_norm
from repro.rl.gae import compute_gae
from repro.rl.rollout import RolloutBatch
from repro.rl.vector_rollout import VectorRolloutCollector
from repro.rl.ppo import PPOTrainer, TrainIterationStats
from repro.rl.ppo_dirichlet import DirichletPPOTrainer
from repro.rl.imitation import clone_rule, collect_visited_observations
from repro.rl.cem import CEMResult, optimize_constant_rule
from repro.rl.evaluation import (
    evaluate_policies_mfc,
    evaluate_policy_mfc,
    rollout_returns_lockstep,
)

__all__ = [
    "MLP",
    "GaussianPolicyNetwork",
    "ValueNetwork",
    "widen_input_weights",
    "DiagGaussian",
    "DirichletBlocks",
    "Adam",
    "clip_grads_by_global_norm",
    "global_norm",
    "compute_gae",
    "RolloutBatch",
    "VectorRolloutCollector",
    "PPOTrainer",
    "TrainIterationStats",
    "DirichletPPOTrainer",
    "clone_rule",
    "collect_visited_observations",
    "CEMResult",
    "optimize_constant_rule",
    "evaluate_policy_mfc",
    "evaluate_policies_mfc",
    "rollout_returns_lockstep",
]
