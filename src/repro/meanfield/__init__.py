"""Mean-field control model: decision rules, exact discretization, MFC MDP.

This package implements Sections 2.2-2.5 of the paper: the infinite
agent/queue limit of the load-balancing system, its exact discretization
via matrix exponentials of frozen-rate birth-death generators, and the
resulting upper-level Markov decision process on ``P(Z) x Lambda``.
"""

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import (
    ExactPropagator,
    birth_death_generator,
    epoch_update,
    extended_generator,
    per_state_arrival_rates,
    propagate_laws,
    propagate_state,
)
from repro.meanfield.mfc_env import MeanFieldEnv, MeanFieldState
from repro.meanfield.analytic import (
    mm1b_loss_probability,
    mm1b_stationary_distribution,
    mmpp_stationary_distribution,
)
from repro.meanfield.heterogeneous import HeterogeneousMeanFieldModel
from repro.meanfield.stationary import (
    StationaryResult,
    stationary_distribution,
)
from repro.meanfield.convergence import (
    TrajectoryGap,
    mean_field_trajectory,
    trajectory_gap,
)
from repro.meanfield.local import (
    local_arrival_rates,
    local_epoch_update,
    neighborhood_mixtures,
    observed_distributions,
)
from repro.meanfield.delayed import (
    DelayedMeanFieldPropagator,
    delayed_arrival_rates,
    delayed_local_epoch_update,
    delayed_mean_field_trajectory,
)
from repro.meanfield.delayed_env import DelayedMeanFieldEnv
from repro.meanfield.features import (
    ObservationFeatures,
    age_context,
    mean_occupancy,
    regime_age_context,
    regime_age_contexts_batch,
)

__all__ = [
    "DelayedMeanFieldEnv",
    "DelayedMeanFieldPropagator",
    "ObservationFeatures",
    "age_context",
    "mean_occupancy",
    "regime_age_context",
    "regime_age_contexts_batch",
    "delayed_arrival_rates",
    "delayed_local_epoch_update",
    "delayed_mean_field_trajectory",
    "local_arrival_rates",
    "local_epoch_update",
    "neighborhood_mixtures",
    "observed_distributions",
    "DecisionRule",
    "ExactPropagator",
    "birth_death_generator",
    "extended_generator",
    "per_state_arrival_rates",
    "propagate_state",
    "propagate_laws",
    "epoch_update",
    "MeanFieldEnv",
    "MeanFieldState",
    "mm1b_loss_probability",
    "mm1b_stationary_distribution",
    "mmpp_stationary_distribution",
    "HeterogeneousMeanFieldModel",
    "StationaryResult",
    "stationary_distribution",
    "TrajectoryGap",
    "mean_field_trajectory",
    "trajectory_gap",
]
