"""Ablation A6: closed-form vs ``expm`` mean-field propagator.

:func:`repro.meanfield.discretization.propagate_state` computes every
epoch row and drop integral in closed form from the M/M/1/B eigenpairs
of the symmetrized generator. ``scipy.linalg.expm`` of the extended
generator, Eq. 27-28 as written and the kernel's per-slice fallback, is
the reference. This bench replays the stacks PPO collection moves
(``E = 8`` lock-step laws at ``Δt = 5`` under random raw actions), times
one propagator call each way, and asserts that the closed form stays
within 1e-12 of ``expm`` on every row and drop.
"""

import time

import numpy as np
from scipy.linalg import expm

from repro.config import paper_system_config
from repro.meanfield.discretization import extended_generator, propagate_state
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.static import JoinShortestQueuePolicy
from repro.utils.tables import format_table

from conftest import run_once

DELTA_T = 5.0
ENVS = 8
NUM_STATES = 6


def _lockstep_rate_stacks(steps: int = 300) -> list[np.ndarray]:
    """Frozen rates ``(E, S)`` of every slice of an ``E = 8`` lock-step
    run, as the PPO collector steps it."""
    cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
    env = MeanFieldEnv(cfg, horizon=10**9, seed=0)
    fleet = [env] + [env.clone(seed=i) for i in range(1, ENVS)]
    for member in fleet:
        member.reset()
    actions = np.random.default_rng(0).random((steps, ENVS, env.action_size))
    stacks = []
    for raw in actions:
        step = MeanFieldEnv.step_raw_batch(fleet, raw)
        stacks.append(np.stack([info["arrival_rates"] for info in step.infos]))
    return stacks


def _closed_form_rows(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return propagate_state(rates, 1.0, DELTA_T, NUM_STATES)


def _expm_rows(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row ``z`` of ``expm(Ā Δt)`` for each law and initial state ``z``."""
    z = np.arange(NUM_STATES)
    rows = expm(extended_generator(rates, 1.0, NUM_STATES) * DELTA_T)[:, z, z]
    return rows[..., :NUM_STATES], rows[..., NUM_STATES]


def _median_seconds(rows, stacks: list[np.ndarray]) -> float:
    """Median seconds of one ``rows`` call over the replayed stacks."""
    times = []
    for rates in stacks:
        start = time.perf_counter()
        rows(rates)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_closed_form_matches_expm(benchmark, results_dir):
    def compare():
        stacks = _lockstep_rate_stacks()
        row_dev = drop_dev = 0.0
        for rates in stacks:
            trans, drops = _closed_form_rows(rates)
            ref_trans, ref_drops = _expm_rows(rates)
            row_dev = max(row_dev, float(np.abs(trans - ref_trans).max()))
            drop_dev = max(drop_dev, float(np.abs(drops - ref_drops).max()))
        closed = _median_seconds(_closed_form_rows, stacks)
        dense = _median_seconds(_expm_rows, stacks)
        return row_dev, drop_dev, closed, dense

    row_dev, drop_dev, closed, dense = run_once(benchmark, compare)
    assert row_dev <= 1e-12
    assert drop_dev <= 1e-12
    table = format_table(
        ["quantity", "value"],
        [
            ["max row deviation", f"{row_dev:.2e}"],
            ["max drop deviation", f"{drop_dev:.2e}"],
            [f"one call, E={ENVS} laws, closed form", f"{closed * 1e6:.0f} us"],
            [f"one call, E={ENVS} laws, expm", f"{dense * 1e6:.0f} us"],
            ["expm / closed-form call time", f"{dense / closed:.2f}x"],
        ],
        title=f"Ablation A6: closed form vs expm propagator (Δt={DELTA_T:g})",
    )
    (results_dir / "ablation_propagator.txt").write_text(table + "\n")
    print("\n" + table)


def test_exact_propagator_step_speed(benchmark):
    cfg = paper_system_config(delta_t=DELTA_T, num_queues=100)
    env = MeanFieldEnv(cfg, horizon=10**9, seed=0)
    env.reset(seed=0)
    rule = JoinShortestQueuePolicy(6, 2).rule
    benchmark(lambda: env.step(rule))
