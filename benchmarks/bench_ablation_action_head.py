"""Ablation A1: Gaussian+normalization vs Dirichlet action head.

The paper reports that Dirichlet-parameterized upper-level policies
(directly outputting simplex actions) performed "significantly worse"
than the Gaussian policy with manual normalization — a result observed
over its full 2.5e7-step training budget. At bench scale neither head
separates definitively, so this bench *characterizes* the two heads at
a strictly matched budget (same env, batch size, epochs, learning rate)
and records training curves and final deterministic evaluations to
``results/ablation_action_head.txt``; EXPERIMENTS.md discusses the
budget caveat. Hard assertions cover validity and comparability, not a
winner.
"""

import numpy as np

from repro.config import PPOConfig, paper_system_config
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.learned import NeuralPolicy
from repro.rl.evaluation import evaluate_policy_mfc
from repro.rl.ppo import PPOTrainer
from repro.rl.ppo_dirichlet import DirichletPPOTrainer
from repro.utils.tables import format_table

from conftest import run_once

ITERATIONS = 4


def _common_config(**extra) -> PPOConfig:
    return PPOConfig(
        learning_rate=3e-4,
        train_batch_size=2000,
        minibatch_size=500,
        num_epochs=8,
        hidden_sizes=(64, 64),
        gae_lambda=0.95,
        value_clip_param=5000.0,
        **extra,
    )


def _run_both_heads():
    cfg = paper_system_config(delta_t=5.0, num_queues=100)

    env_g = MeanFieldEnv(cfg, horizon=100, seed=0)
    gaussian = PPOTrainer(
        env_g, _common_config(initial_log_std=-1.0), seed=0
    )
    g_curve = [gaussian.train_iteration().mean_episode_return
               for _ in range(ITERATIONS)]
    g_policy = NeuralPolicy(
        gaussian.policy, cfg.num_queue_states, cfg.d, env_g.num_modes
    )
    g_final = evaluate_policy_mfc(env_g, g_policy, episodes=10, seed=7).mean

    env_d = MeanFieldEnv(cfg, horizon=100, seed=0)
    dirichlet = DirichletPPOTrainer(
        env_d, block_size=cfg.d, config=_common_config(), seed=0
    )
    d_curve = [dirichlet.train_iteration().mean_episode_return
               for _ in range(ITERATIONS)]
    d_policy = dirichlet.mean_rule_policy(cfg.num_queue_states, cfg.d)
    d_final = evaluate_policy_mfc(env_d, d_policy, episodes=10, seed=7).mean
    return g_curve, g_final, d_curve, d_final


def test_action_head_ablation(benchmark, results_dir):
    g_curve, g_final, d_curve, d_final = run_once(benchmark, _run_both_heads)

    # Validity: both heads train and evaluate to finite returns.
    assert all(np.isfinite(x) for x in g_curve + d_curve)
    assert np.isfinite(g_final) and np.isfinite(d_final)
    # Both are in the sane band between catastrophic and perfect.
    for value in (g_final, d_final):
        assert -120.0 < value < 0.0

    rows = [
        ["Gaussian+norm (paper)", f"{g_curve[-1]:.1f}", f"{g_final:.2f}"],
        ["Dirichlet (ablation)", f"{d_curve[-1]:.1f}", f"{d_final:.2f}"],
    ]
    table = format_table(
        ["Action head", f"train return @ iter {ITERATIONS}", "deterministic eval"],
        rows,
        title=(
            "Ablation A1: action-head comparison at matched budget "
            f"({ITERATIONS} x 2000 steps, Δt=5, horizon 100)"
        ),
    )
    curves = "\n".join(
        f"iter {i}: gaussian {g:.2f} dirichlet {d:.2f}"
        for i, (g, d) in enumerate(zip(g_curve, d_curve))
    )
    (results_dir / "ablation_action_head.txt").write_text(
        table + "\n\n" + curves + "\n"
    )
    print("\n" + table)
