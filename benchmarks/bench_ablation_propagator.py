"""Ablation A6: exact vs tabulated mean-field propagator.

The exact discretization computes every epoch row in closed form (with
a per-slice ``expm`` fallback); the tabulated propagator interpolates
pre-computed exponentials on an arrival-rate grid. This bench measures
the per-step cost of both on the lock-step step PPO collection runs
(``E = 8`` environments, random raw actions) and the error the table
induces on full-episode returns and on the interpolated rows
themselves.
"""

import time

import numpy as np

from repro.config import paper_system_config
from repro.meanfield.discretization import TabulatedPropagator
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.arrivals import ScriptedRate
from repro.utils.tables import format_table

from conftest import run_once

DELTA_T = 5.0


def _episode_return(propagator: str, modes) -> float:
    cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
    env = MeanFieldEnv(
        cfg,
        horizon=len(modes),
        propagator=propagator,
        arrival_process=ScriptedRate([0.9, 0.6], modes),
        seed=0,
    )
    return env.rollout_return(JoinShortestQueuePolicy(6, 2), seed=0)


def _lockstep_step_seconds(propagator: str, envs: int = 8, steps: int = 300) -> float:
    """Median seconds of one batched lock-step step over ``envs``
    environments, as the PPO collector takes it."""
    cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
    env = MeanFieldEnv(cfg, horizon=10**9, propagator=propagator, seed=0)
    fleet = [env] + [env.clone(seed=i) for i in range(1, envs)]
    for member in fleet:
        member.reset()
    actions = np.random.default_rng(0).random((steps, envs, env.action_size))
    times = np.empty(steps)
    for i, raw in enumerate(actions):
        start = time.perf_counter()
        MeanFieldEnv.step_raw_batch(fleet, raw)
        times[i] = time.perf_counter() - start
    return float(np.median(times))


def test_propagator_accuracy(benchmark, results_dir):
    rng = np.random.default_rng(0)
    modes = rng.integers(0, 2, size=100)

    def compare():
        exact = _episode_return("exact", modes)
        tab = _episode_return("tabulated", modes)
        row_err = TabulatedPropagator(
            6, 1.0, DELTA_T, max_arrival=1.8, grid_size=257
        ).max_interpolation_error(50)
        return exact, tab, row_err

    exact, tab, row_err = run_once(benchmark, compare)
    assert abs(exact - tab) < 0.05  # episode-return error
    assert row_err < 1e-4  # per-row interpolation error at default grid
    exact_step = _lockstep_step_seconds("exact")
    tab_step = _lockstep_step_seconds("tabulated")

    table = format_table(
        ["quantity", "value"],
        [
            ["episode return (exact closed form)", f"{exact:.4f}"],
            ["episode return (tabulated)", f"{tab:.4f}"],
            ["abs episode error", f"{abs(exact - tab):.2e}"],
            ["max row interpolation error", f"{row_err:.2e}"],
            ["lock-step step, E=8, exact closed form", f"{exact_step * 1e6:.0f} us"],
            ["lock-step step, E=8, tabulated", f"{tab_step * 1e6:.0f} us"],
            ["exact / tabulated step time", f"{exact_step / tab_step:.2f}x"],
        ],
        title="Ablation A6: exact vs tabulated propagator (100 epochs, Δt=5)",
    )
    (results_dir / "ablation_propagator.txt").write_text(table + "\n")
    print("\n" + table)


def test_exact_propagator_step_speed(benchmark):
    cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
    env = MeanFieldEnv(cfg, horizon=10**9, propagator="exact", seed=0)
    env.reset(seed=0)
    rule = JoinShortestQueuePolicy(6, 2).rule
    benchmark(lambda: env.step(rule))


def test_tabulated_propagator_step_speed(benchmark):
    cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
    env = MeanFieldEnv(cfg, horizon=10**9, propagator="tabulated", seed=0)
    env.reset(seed=0)
    rule = JoinShortestQueuePolicy(6, 2).rule
    benchmark(lambda: env.step(rule))
