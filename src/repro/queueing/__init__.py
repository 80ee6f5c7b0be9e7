"""Finite-system substrate: arrivals, queues, clients, environments.

Implements the ``N``-client ``M``-queue system of Section 2 and the
evaluation procedure of Algorithm 1, plus an event-driven job-level
simulator used to cross-validate the frozen-rate epoch model, a
heterogeneous-server extension, sparse dispatcher topologies,
non-stationary workload generators (``workloads``), stochastic
observation-delay models (``delays``, ``delayed_env``), and an RL
adapter exposing the finite delayed system as a training MDP
(``finite_mdp``).
"""

from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.backends import (
    available_backends,
    get_backend,
)
from repro.queueing.queue_ctmc import simulate_queues_epoch_batched
from repro.queueing.clients import (
    choice_probabilities,
    committed_counts_multinomial,
    sample_client_choices_batched,
)
from repro.queueing.batched_env import (
    BatchedEpisodeResult,
    BatchedFiniteSystemEnv,
    BatchedInfiniteClientEnv,
    run_episodes_batched,
)
from repro.queueing.events import simulate_epoch_event_driven
from repro.queueing.heterogeneous import (
    BatchedHeterogeneousFiniteEnv,
    ServerClassSpec,
)
from repro.queueing.topology import TopologySpec
from repro.queueing.graph_env import BatchedGraphFiniteEnv
from repro.queueing.delays import (
    DelayModel,
    DeterministicDelay,
    IIDDelay,
    MarkovModulatedDelay,
)
from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
from repro.queueing.finite_mdp import FiniteRegimeEnv
from repro.queueing.hybrid_env import BatchedHybridFleetEnv
from repro.queueing.workloads import (
    DiurnalRate,
    FlashCrowdRate,
    ProfileRate,
    TraceReplayRate,
)
from repro.queueing.chaos import (
    CapacityFlap,
    CapacityProfile,
    DegradationSchedule,
    LinkFailure,
    ServerOutage,
    TopologyRewire,
    parse_chaos_spec,
    reroute_away,
    water_fill,
)

__all__ = [
    "DegradationSchedule",
    "ServerOutage",
    "CapacityFlap",
    "CapacityProfile",
    "LinkFailure",
    "TopologyRewire",
    "parse_chaos_spec",
    "reroute_away",
    "water_fill",
    "TopologySpec",
    "BatchedGraphFiniteEnv",
    "DelayModel",
    "DeterministicDelay",
    "IIDDelay",
    "MarkovModulatedDelay",
    "BatchedDelayedFiniteEnv",
    "FiniteRegimeEnv",
    "BatchedHybridFleetEnv",
    "ProfileRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "TraceReplayRate",
    "BatchedHeterogeneousFiniteEnv",
    "ServerClassSpec",
    "MarkovModulatedRate",
    "available_backends",
    "get_backend",
    "simulate_queues_epoch_batched",
    "choice_probabilities",
    "committed_counts_multinomial",
    "sample_client_choices_batched",
    "BatchedFiniteSystemEnv",
    "BatchedInfiniteClientEnv",
    "BatchedEpisodeResult",
    "run_episodes_batched",
    "simulate_epoch_event_driven",
]
