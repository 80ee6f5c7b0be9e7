"""Figure 3: PPO training curve on the MFC MDP at Δt = 5.

The paper's plot shows (i) the episode return rising over training,
(ii) horizontal reference lines for MF-JSQ(2) ≈ −200 and MF-RND ≈ −228
at T_e = 500, with RND below JSQ, and (iii) the final learned return
above both. At bench scale we run a short PPO leg for the curve itself
and check the *final* learned level using the packaged checkpoint
(trained by ``scripts/pretrain_policies.py``); paper-vs-measured values
go to ``results/fig3.*``.

Runs standalone or under pytest-benchmark:

    PYTHONPATH=src python benchmarks/bench_fig3_training_curve.py [--quick]
    PYTHONPATH=src python -m pytest benchmarks/bench_fig3_training_curve.py

The standalone entry emits ``BENCH_fig3_training_curve.json``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import paper_ppo_config, paper_system_config
from repro.experiments.fig3_training import run_fig3
from repro.experiments.pretrained import get_mf_policy
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.rl.evaluation import evaluate_policies_mfc
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.utils.tables import format_table

DELTA_T = 5.0
HORIZON = 100  # scaled from the paper's T_e = 500 (returns scale linearly)
DEFAULT_JSON = Path("BENCH_fig3_training_curve.json")


def _curve_ppo_config():
    return paper_ppo_config(seed=0).with_updates(
        learning_rate=3e-4,
        minibatch_size=512,
        num_epochs=10,
        gae_lambda=0.95,
        value_clip_param=5000.0,
        initial_log_std=-1.0,
    )


def run_bench(
    quick: bool = False, seed: int = 0, json_path: Path | None = DEFAULT_JSON
) -> dict:
    """Standalone fig3 smoke: short PPO leg + reference-line ordering."""
    iterations = 2 if quick else 4
    horizon = 50 if quick else HORIZON
    ppo = _curve_ppo_config()
    if quick:
        ppo = ppo.with_updates(train_batch_size=1000, minibatch_size=250)
    start = time.perf_counter()
    result = run_fig3(
        delta_t=DELTA_T,
        iterations=iterations,
        horizon=horizon,
        ppo_config=ppo,
        baseline_episodes=4 if quick else 10,
        seed=seed,
    )
    elapsed = time.perf_counter() - start
    print(result.format_table())
    print(f"\nfig3 curve ({iterations} iterations) in {elapsed:.1f}s")

    stats = {
        "benchmark": "fig3_training_curve",
        "mode": "quick" if quick else "full",
        "scale": {
            "delta_t": DELTA_T,
            "iterations": iterations,
            "horizon": horizon,
            "seed": seed,
        },
        "wall_clock_s": round(elapsed, 3),
        "mean_returns": [float(r) for r in result.mean_returns],
        "baseline_returns": {
            name: float(v) for name, v in result.baseline_returns.items()
        },
    }
    if json_path is not None:
        json_path.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"[json written to {json_path}]")

    # Reference lines ordered as in the paper: RND below JSQ(2).
    assert (
        stats["baseline_returns"]["MF-RND"]
        < stats["baseline_returns"]["MF-JSQ(2)"]
    )
    assert len(result.mean_returns) == iterations
    assert all(np.isfinite(r) for r in result.mean_returns)
    return stats


def test_fig3_training_curve(benchmark, results_dir):
    from conftest import run_once

    ppo = _curve_ppo_config()
    result = run_once(
        benchmark,
        run_fig3,
        delta_t=DELTA_T,
        iterations=4,
        horizon=HORIZON,
        ppo_config=ppo,
        baseline_episodes=10,
        seed=0,
    )
    # Reference lines ordered as in the paper: RND below JSQ(2).
    assert result.baseline_returns["MF-RND"] < result.baseline_returns["MF-JSQ(2)"]
    # The curve is being recorded and is finite.
    assert len(result.mean_returns) == 4
    assert all(np.isfinite(r) for r in result.mean_returns)
    (results_dir / "fig3_curve.csv").write_text(result.to_csv() + "\n")
    (results_dir / "fig3_summary.txt").write_text(result.format_table() + "\n")
    print("\n" + result.format_table())


def test_fig3_final_level_beats_baselines(benchmark, results_dir):
    """The fully-trained policy (packaged checkpoint) reproduces the
    paper's final ordering: MF > MF-JSQ(2) > MF-RND at Δt = 5."""
    from conftest import run_once

    def evaluate():
        cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
        env = MeanFieldEnv(cfg, horizon=HORIZON, seed=0)
        mf_policy, source = get_mf_policy(DELTA_T)
        evals = evaluate_policies_mfc(
            env,
            {
                "MF": mf_policy,
                "MF-JSQ(2)": JoinShortestQueuePolicy(6, 2),
                "MF-RND": RandomPolicy(6, 2),
            },
            episodes=20,
            seed=1,
        )
        return evals, source

    evals, source = run_once(benchmark, evaluate)
    assert evals["MF"].mean > evals["MF-JSQ(2)"].mean
    assert evals["MF"].mean > evals["MF-RND"].mean
    assert evals["MF-JSQ(2)"].mean > evals["MF-RND"].mean
    rows = [
        [name, f"{ci.mean:.2f}", f"±{ci.half_width:.2f}"]
        for name, ci in evals.items()
    ]
    table = format_table(
        ["Policy", f"return (T={HORIZON}, Δt={DELTA_T:g})", "95% CI"],
        rows,
        title=f"Figure 3 final levels (policy source: {source})",
    )
    (results_dir / "fig3_final_levels.txt").write_text(table + "\n")
    print("\n" + table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2 iterations at half horizon (CI smoke)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"machine-readable output path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)
    run_bench(quick=args.quick, seed=args.seed, json_path=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
