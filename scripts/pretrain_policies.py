#!/usr/bin/env python3
"""Pretrain the MF policies shipped in ``repro/assets/policies/``.

One policy per synchronization delay ``Δt``, following a three-stage
pipeline that reproduces the paper's result (a learned upper-level
policy that beats JSQ(2) at intermediate delays and RND everywhere) at
laptop-scale compute instead of the authors' 35 h × 20 cores:

1. **CEM** finds a strong *constant* decision rule on the mean-field MDP
   (seconds; already interpolates between JSQ and RND as Δt grows).
2. **Behavior cloning** distills that rule into the paper's 2×256-tanh
   Gaussian policy network.
3. **PPO fine-tuning** (critic warmup first, then full updates) adds
   state feedback on (ν_t, λ_t). Hyperparameters follow Table 2 except
   for the documented speed deviations (learning rate, epochs/minibatch,
   value clip) recorded in the checkpoint metadata.

Usage:
    python scripts/pretrain_policies.py [--delta-ts 1,3,5] [--iters 25]
                                        [--out DIR] [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


from repro.config import PPOConfig, paper_system_config
from repro.experiments.pretrained import checkpoint_path
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.learned import NeuralPolicy
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.rl.cem import optimize_constant_rule
from repro.rl.evaluation import evaluate_policies_mfc, evaluate_policy_mfc
from repro.rl.imitation import clone_rule, collect_visited_observations
from repro.rl.ppo import PPOTrainer


def finetune_ppo_config(seed: int) -> PPOConfig:
    """Table 2 with the documented scaled-compute deviations."""
    return PPOConfig(
        gamma=0.99,
        gae_lambda=0.95,          # Table 2: 1.0 (variance reduction)
        kl_coeff=0.2,
        kl_target=0.01,
        clip_param=0.3,
        learning_rate=1e-4,       # Table 2: 5e-5 (fewer total steps)
        train_batch_size=4000,
        minibatch_size=512,       # Table 2: 128 (throughput)
        num_epochs=10,            # Table 2: 30 (throughput)
        value_clip_param=5000.0,  # RLlib default 10 freezes the critic here
        hidden_sizes=(256, 256),  # Figure 2 architecture
        initial_log_std=-1.5,     # exploration scale fits [0, 1] actions
        seed=seed,
    )


def pretrain_one(
    delta_t: float,
    out_dir: Path,
    cem_generations: int = 15,
    ppo_iterations: int = 25,
    critic_warmup: int = 3,
    horizon: int = 100,
    eval_episodes: int = 30,
    seed: int = 0,
    num_envs: int = 8,
    verbose: bool = True,
) -> dict:
    """Run the full pipeline for one delay; returns the metadata dict."""
    t_start = time.perf_counter()
    cfg = paper_system_config(delta_t=delta_t, num_queues=100)
    env = MeanFieldEnv(cfg, horizon=horizon, seed=seed)
    eval_env = MeanFieldEnv(cfg, horizon=horizon, seed=seed + 1)
    s, d = cfg.num_queue_states, cfg.d

    baselines = {
        "JSQ": JoinShortestQueuePolicy(s, d),
        "RND": RandomPolicy(s, d),
    }
    base = evaluate_policies_mfc(eval_env, baselines, episodes=eval_episodes, seed=7)
    if verbose:
        print(
            f"[Δt={delta_t:g}] baselines: JSQ={base['JSQ'].mean:.2f} "
            f"RND={base['RND'].mean:.2f}"
        )

    # Stage 1: CEM over constant rules.
    cem = optimize_constant_rule(
        env,
        generations=cem_generations,
        population=28,
        episodes_per_candidate=2,
        seed=seed,
    )
    cem_eval = evaluate_policy_mfc(
        eval_env, cem.policy, episodes=eval_episodes, seed=7
    )
    if verbose:
        print(f"[Δt={delta_t:g}] CEM constant rule: {cem_eval.mean:.2f}")

    # Stage 2: behavior cloning into the paper's network.
    ppo_cfg = finetune_ppo_config(seed)
    trainer = PPOTrainer(env, ppo_cfg, seed=seed, num_envs=num_envs)
    obs = collect_visited_observations(env, cem.rule, episodes=5, seed=seed)
    mse = clone_rule(trainer.policy, cem.rule, obs, epochs=300, seed=seed)
    if verbose:
        print(f"[Δt={delta_t:g}] cloning MSE: {mse:.3e}")

    # Stage 3: PPO fine-tuning (critic warmup first).
    curve: list[float] = []
    for i in range(ppo_iterations):
        stats = trainer.train_iteration(update_policy=i >= critic_warmup)
        curve.append(stats.mean_episode_return)
        if verbose and (i % 5 == 0 or i == ppo_iterations - 1):
            print(
                f"[Δt={delta_t:g}] iter {i:3d} return {stats.mean_episode_return:7.2f} "
                f"kl {stats.kl:.4f} ev {stats.explained_variance:.2f}"
            )

    policy = NeuralPolicy(
        trainer.policy, num_states=s, d=d, num_modes=env.num_modes
    )
    ppo_eval = evaluate_policy_mfc(
        eval_env, policy, episodes=eval_episodes, seed=7
    )
    # Keep whichever stage generalizes better (PPO can only help; guard
    # against a fine-tuning regression at tiny budgets).
    use_ppo = ppo_eval.mean >= cem_eval.mean
    if not use_ppo:
        # Re-clone the CEM rule so the shipped network reproduces it.
        clone_rule(trainer.policy, cem.rule, obs, epochs=300, seed=seed)
        policy = NeuralPolicy(
            trainer.policy, num_states=s, d=d, num_modes=env.num_modes
        )
        final_eval = evaluate_policy_mfc(
            eval_env, policy, episodes=eval_episodes, seed=7
        )
    else:
        final_eval = ppo_eval

    meta = {
        "delta_t": delta_t,
        "pipeline": "cem+clone+ppo" if use_ppo else "cem+clone",
        "horizon": horizon,
        "mean_return": final_eval.mean,
        "cem_return": cem_eval.mean,
        "ppo_return": ppo_eval.mean,
        "jsq_return": base["JSQ"].mean,
        "rnd_return": base["RND"].mean,
        "ppo_iterations": ppo_iterations,
        "env_steps": trainer.collector.total_env_steps,
        "seed": seed,
        "train_seconds": round(time.perf_counter() - t_start, 1),
    }
    path = checkpoint_path(delta_t, out_dir)
    policy.save(path, extra_meta=meta)
    if verbose:
        print(
            f"[Δt={delta_t:g}] saved {path.name}: final={final_eval.mean:.2f} "
            f"({meta['pipeline']}, {meta['train_seconds']}s)"
        )
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--delta-ts",
        default="1,2,3,4,5,6,7,8,9,10",
        help="comma-separated synchronization delays",
    )
    parser.add_argument("--iters", type=int, default=25, help="PPO iterations")
    parser.add_argument("--cem-gens", type=int, default=15)
    parser.add_argument(
        "--num-envs",
        type=int,
        default=8,
        help="lock-step MFC envs for PPO collection (vectorized rollouts)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output directory (default: packaged assets)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny budget (CI smoke)"
    )
    args = parser.parse_args(argv)

    batch_size = finetune_ppo_config(args.seed).train_batch_size
    if args.num_envs < 1 or batch_size % args.num_envs != 0:
        # Fail before the CEM stage: the PPO batch must split evenly
        # across the lock-step environments (PPOTrainer re-checks).
        parser.error(
            "--num-envs must divide the PPO train batch size "
            f"{batch_size}, got {args.num_envs}"
        )
    delta_ts = [float(x) for x in args.delta_ts.split(",") if x.strip()]
    out_dir = args.out
    if out_dir is None:
        from repro.assets import POLICY_DIR

        out_dir = POLICY_DIR
    iters = 2 if args.quick else args.iters
    cem_gens = 2 if args.quick else args.cem_gens

    for dt in delta_ts:
        pretrain_one(
            dt,
            out_dir,
            cem_generations=cem_gens,
            ppo_iterations=iters,
            seed=args.seed,
            num_envs=args.num_envs,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
