"""Ablation A3: event-driven vs lock-step frozen-rate simulation.

The finite system can be simulated two ways that are equal in
distribution (Poisson thinning/superposition): the vectorized lock-step
uniformization simulator used everywhere, and the job-level global-clock
Gillespie simulator. This bench measures their agreement on one epoch's
state law and their relative throughput — the lock-step path is the one
that makes the paper-scale sweeps (M = 1000, N = 10^6) tractable.
"""

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.queueing.clients import sample_client_choices_batched
from repro.queueing.events import simulate_epoch_event_driven
from repro.queueing.queue_ctmc import simulate_queues_epoch_batched
from repro.utils.tables import format_table

from conftest import run_once

M, N, B, LAM, DT = 20, 400, 5, 0.9, 2.0
REPS = 150


def _epoch_pair(rng, base_states, rule):
    _, _, (committed,) = sample_client_choices_batched(
        base_states[None, :], N, rule, rng
    )
    counts = np.bincount(committed, minlength=M)
    rates = M * LAM * counts / N
    (new_l,), (d_l,) = simulate_queues_epoch_batched(
        base_states[None, :], rates[None, :], 1.0, DT, B, rng
    )
    new_e, d_e = simulate_epoch_event_driven(
        base_states, committed, LAM, 1.0, DT, B, rng
    )
    return new_l, d_l, new_e, d_e


def test_simulator_agreement(benchmark, results_dir):
    rng = np.random.default_rng(0)
    base_states = rng.integers(0, B + 1, size=M)
    rule = DecisionRule.join_shortest(B + 1, 2)

    def collect():
        lock_states = np.zeros(M)
        ev_states = np.zeros(M)
        lock_drops = 0.0
        ev_drops = 0.0
        for _ in range(REPS):
            new_l, d_l, new_e, d_e = _epoch_pair(rng, base_states, rule)
            lock_states += new_l
            ev_states += new_e
            lock_drops += d_l.sum()
            ev_drops += d_e.sum()
        return (
            lock_states / REPS,
            ev_states / REPS,
            lock_drops / REPS,
            ev_drops / REPS,
        )

    lock_mean, ev_mean, lock_drops, ev_drops = run_once(benchmark, collect)
    worst = float(np.abs(lock_mean - ev_mean).max())
    assert worst < 0.5  # Monte-Carlo agreement of per-queue mean states
    assert abs(lock_drops - ev_drops) < 1.0

    table = format_table(
        ["quantity", "lock-step", "event-driven"],
        [
            ["mean queue state (avg over queues)",
             f"{lock_mean.mean():.3f}", f"{ev_mean.mean():.3f}"],
            ["drops per epoch (total)", f"{lock_drops:.3f}", f"{ev_drops:.3f}"],
            ["max per-queue mean-state gap", f"{worst:.3f}", "—"],
        ],
        title=f"Ablation A3: simulator agreement ({REPS} epochs, M={M}, N={N})",
    )
    (results_dir / "ablation_simulators.txt").write_text(table + "\n")
    print("\n" + table)


def test_lockstep_throughput(benchmark):
    """Throughput of the production path at Figure-5 panel scale."""
    rng = np.random.default_rng(1)
    m = 1000
    states = rng.integers(0, B + 1, size=(1, m))
    rates = rng.uniform(0, 1.8, size=(1, m))

    def one_epoch():
        return simulate_queues_epoch_batched(states, rates, 1.0, DT, B, rng)

    new, _ = benchmark(one_epoch)
    assert new.shape == (1, m)
