"""repro — Learning Mean-Field Control for Delayed-Information Load Balancing.

A complete, self-contained reproduction of Tahir, Cui & Koeppl (ICPP
'22): the ``N``-client/``M``-queue delayed-information load-balancing
system, its mean-field control limit with exact discretization, baseline
policies (JSQ(d), RND, SED(d)), a from-scratch PPO stack, and the full
experiment harness regenerating every table and figure of the paper.

Quickstart
----------
>>> from repro import paper_system_config, MeanFieldEnv
>>> from repro.policies import JoinShortestQueuePolicy
>>> cfg = paper_system_config(delta_t=5.0, num_queues=100)
>>> env = MeanFieldEnv(cfg, horizon=100)
>>> jsq = JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d)
>>> ret = env.rollout_return(jsq, seed=0)  # expected −drops over 100 epochs
"""

from repro.config import (
    PPOConfig,
    SystemConfig,
    paper_ppo_config,
    paper_system_config,
)
from repro.meanfield import (
    DecisionRule,
    MeanFieldEnv,
    epoch_update,
    per_state_arrival_rates,
)
from repro.queueing import (
    BatchedFiniteSystemEnv,
    BatchedInfiniteClientEnv,
    MarkovModulatedRate,
    run_episodes_batched,
)
from repro.policies import (
    ConstantRulePolicy,
    JoinShortestQueuePolicy,
    NeuralPolicy,
    RandomPolicy,
)

# Kept in sync with pyproject.toml; also salts the experiment-store
# cache keys (repro.store.keys.CODE_SALT), so bump it whenever a change
# alters the simulation random streams.
__version__ = "0.14.0"

__all__ = [
    "PPOConfig",
    "SystemConfig",
    "paper_ppo_config",
    "paper_system_config",
    "DecisionRule",
    "MeanFieldEnv",
    "epoch_update",
    "per_state_arrival_rates",
    "BatchedFiniteSystemEnv",
    "BatchedInfiniteClientEnv",
    "MarkovModulatedRate",
    "run_episodes_batched",
    "ConstantRulePolicy",
    "JoinShortestQueuePolicy",
    "NeuralPolicy",
    "RandomPolicy",
    "__version__",
]
