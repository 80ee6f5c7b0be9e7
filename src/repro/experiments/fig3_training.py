"""Figure 3: PPO training curve on the mean-field MDP.

The paper trains PPO for ~2.5e7 simulated decision epochs at ``Δt = 5``
and plots the episode return (negative packet drops per ``T_e = 500``
epoch episode) against training steps, together with horizontal
reference lines for the MF-JSQ(2) and MF-RND rules evaluated in the same
mean-field model. This module reproduces that experiment at a
configurable budget: the same MDP, the same loss, the same
hyperparameters (Table 2), fewer iterations by default.

PPO collects from 8 lock-step environments (the shape of the
``ppo-train-dt5`` benchmark workload), so every time slice moves all 8
laws with one batched step of the closed-form epoch map.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.config import PPOConfig, SystemConfig, paper_ppo_config, paper_system_config
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.learned import NeuralPolicy
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.rl.evaluation import evaluate_policies_mfc, evaluate_policy_mfc
from repro.rl.ppo import PPOTrainer
from repro.utils.tables import format_table, series_to_csv

__all__ = ["TrainingCurveResult", "run_fig3"]

#: Lock-step environments PPO collects from; every caller's
#: ``train_batch_size`` must be a multiple of it.
_NUM_ENVS = 8


@dataclass
class TrainingCurveResult:
    """Everything Figure 3 plots, as numbers."""

    delta_t: float
    horizon: int
    env_steps: list[int]
    mean_returns: list[float]
    baseline_returns: dict[str, float]
    final_return: float
    policy: NeuralPolicy
    iteration_stats: list = field(default_factory=list)

    def improved_over(self, baseline: str) -> bool:
        return self.final_return > self.baseline_returns[baseline]

    def to_csv(self) -> str:
        rows = list(zip(self.env_steps, self.mean_returns))
        return series_to_csv(["env_steps", "mean_episode_return"], rows)

    def format_table(self) -> str:
        rows = [
            ["MF final", self.final_return],
            *[[name, value] for name, value in self.baseline_returns.items()],
        ]
        return format_table(
            ["Policy", f"Episode return (T={self.horizon}, Δt={self.delta_t:g})"],
            rows,
            title="Figure 3: mean-field episode returns",
        )


def run_fig3(
    delta_t: float = 5.0,
    iterations: int = 30,
    horizon: int = 100,
    config: SystemConfig | None = None,
    ppo_config: PPOConfig | None = None,
    baseline_episodes: int = 30,
    seed: int = 0,
    callback=None,
) -> TrainingCurveResult:
    """Train PPO on the MFC MDP and compare to the static baselines.

    Parameters
    ----------
    iterations:
        PPO iterations of ``train_batch_size`` env steps each, collected
        from 8 lock-step environments (so the batch size must be a
        multiple of 8). The paper uses ~6000 (2.5e7 steps); the default
        regenerates the curve's shape in minutes.
    horizon:
        Episode length in decision epochs (paper: 500). Returns scale
        linearly with it, so baselines and the learned curve stay
        comparable at any value. An iteration in which no episode ends
        (``horizon`` above ``train_batch_size / 8`` steps per
        environment) records a NaN mean return.
    """
    cfg = (
        config
        if config is not None
        else paper_system_config(delta_t=delta_t, num_queues=100)
    )
    if cfg.delta_t != delta_t:
        cfg = cfg.with_updates(delta_t=delta_t)
    ppo = ppo_config if ppo_config is not None else paper_ppo_config(seed=seed)

    env = MeanFieldEnv(cfg, horizon=horizon, seed=seed)
    eval_env = MeanFieldEnv(cfg, horizon=horizon, seed=seed + 1)

    baselines = {
        f"MF-JSQ({cfg.d})": JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d),
        "MF-RND": RandomPolicy(cfg.num_queue_states, cfg.d),
    }
    baseline_cis = evaluate_policies_mfc(
        eval_env, baselines, episodes=baseline_episodes, seed=seed
    )
    baseline_returns = {name: ci.mean for name, ci in baseline_cis.items()}

    trainer = PPOTrainer(env, config=ppo, seed=seed, num_envs=_NUM_ENVS)
    env_steps: list[int] = []
    mean_returns: list[float] = []
    stats_history = []

    def record(stats) -> None:
        env_steps.append(stats.env_steps)
        mean_returns.append(stats.mean_episode_return)
        stats_history.append(stats)
        if callback is not None:
            callback(stats)

    trainer.train(iterations, callback=record)

    policy = NeuralPolicy(
        trainer.policy,
        num_states=cfg.num_queue_states,
        d=cfg.d,
        num_modes=env.num_modes,
        deterministic=True,
    )
    final_ci = evaluate_policy_mfc(
        eval_env, policy, episodes=baseline_episodes, seed=seed + 2
    )
    return TrainingCurveResult(
        delta_t=delta_t,
        horizon=horizon,
        env_steps=env_steps,
        mean_returns=mean_returns,
        baseline_returns=baseline_returns,
        final_return=final_ci.mean,
        policy=policy,
        iteration_stats=stats_history,
    )
