"""Ablation A2: the power-of-d fan-out (d = 1, 2, 3).

The paper fixes d = 2 citing Mitzenmacher's power-of-two result: going
from d = 1 to d = 2 brings an exponential improvement, d = 3 adds
little. This bench reproduces that curve in the mean-field model at a
small delay (where JSQ(d) is near-optimal, so the fan-out effect is
isolated from the delay effect): drops(d=1) ≫ drops(d=2) ≳ drops(d=3).
"""

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import JoinShortestQueuePolicy
from repro.utils.tables import format_table

from conftest import run_once


def _sweep_d():
    results = {}
    for d in (1, 2, 3):
        cfg = SystemConfig(delta_t=1.0, d=d)
        env = MeanFieldEnv(cfg, horizon=200, seed=0)
        policy = JoinShortestQueuePolicy(cfg.num_queue_states, d)
        returns = [env.rollout_return(policy, seed=s) for s in range(6)]
        results[d] = -float(np.mean(returns))  # drops (positive)
    return results


def test_power_of_d(benchmark, results_dir):
    drops = run_once(benchmark, _sweep_d)
    # d=1 is uniform random placement; d=2 collapses drops dramatically.
    assert drops[1] > 3 * drops[2]
    # d=3 helps, but by far less than the d=1 -> d=2 jump.
    assert drops[3] <= drops[2]
    assert (drops[2] - drops[3]) < 0.25 * (drops[1] - drops[2])

    rows = [[d, f"{v:.3f}"] for d, v in drops.items()]
    table = format_table(
        ["d", "drops over 200 epochs (Δt=1, JSQ(d))"],
        rows,
        title="Ablation A2: power-of-d fan-out in the mean-field model",
    )
    (results_dir / "ablation_power_of_d.txt").write_text(table + "\n")
    print("\n" + table)
