#!/usr/bin/env python3
"""Epoch kernels on the batched simulation path: wall-clock and identity.

Runs a Figure-5-style synchronization-delay sweep (bench scale:
``M = 100`` queues, ``N = 4M`` clients, ``Δt ∈ {1..10}``, 32 Monte-Carlo
replicas in one lock-step chunk, per-packet randomization) once under
the NumPy reference kernel and once under the kernel named by
``--backend`` (default ``numba``). It checks bit-identity when the
kernel preserves the RNG-draw contract (statistical equivalence
otherwise) and — when the kernel is genuinely JIT-compiled — asserts
the ≥ ``MIN_SPEEDUP``× wall-clock win. When numba is absent the
registry falls back to NumPy, the identity checks still run (trivially,
on identical streams) and the speedup assertion is skipped.

Runs standalone or under pytest-benchmark:

    PYTHONPATH=src python benchmarks/bench_batched_backend.py [--quick]
    PYTHONPATH=src python benchmarks/bench_batched_backend.py --backend numba
    PYTHONPATH=src python -m pytest benchmarks/bench_batched_backend.py

``--quick`` shrinks the grid for CI smoke and only checks identity
(tiny timings are dominated by noise).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import paper_system_config
from repro.execution import ExecutionContext
from repro.experiments.runner import evaluate_policy_finite
from repro.policies.static import JoinShortestQueuePolicy
from repro.utils.tables import format_table

MIN_SPEEDUP = 5.0
FULL_DELTA_TS = tuple(float(x) for x in range(1, 11))
QUICK_DELTA_TS = (2.0, 5.0)
DEFAULT_JSON = Path("BENCH_batched_backend.json")


def run_sweep(
    delta_ts=FULL_DELTA_TS,
    num_queues: int = 100,
    clients_per_queue: int = 4,
    num_runs: int = 32,
    seed: int = 0,
    sim_backend: str = "numpy",
) -> tuple[dict, float]:
    """Evaluate JSQ(2) over the delay sweep under one epoch kernel.

    All replicas of a sweep point run as one lock-step chunk. Returns
    ``(per-Δt MonteCarloResult dict, total wall-clock seconds)``.
    """
    context = ExecutionContext(
        sim_backend=sim_backend, max_batch_replicas=num_runs
    )
    results = {}
    total = 0.0
    for dt in delta_ts:
        cfg = paper_system_config(
            delta_t=dt,
            num_queues=num_queues,
            num_clients=clients_per_queue * num_queues,
        )
        policy = JoinShortestQueuePolicy(cfg.num_queue_states, cfg.d)
        num_epochs = max(1, round(500.0 / dt))
        start = time.perf_counter()
        results[dt] = evaluate_policy_finite(
            cfg,
            policy,
            num_runs=num_runs,
            num_epochs=num_epochs,
            seed=seed,
            env_kwargs={"per_packet_randomization": True},
            context=context,
        )
        total += time.perf_counter() - start
    return results, total


def equivalence_gaps(candidate: dict, reference: dict) -> dict[float, float]:
    """Per-Δt z-scores of the candidate-vs-reference mean-drop difference.

    A kernel that breaks the RNG-draw contract samples the same
    distribution from different streams, so the standardized gap should
    look standard-normal per Δt.
    """
    gaps = {}
    for dt, rc in candidate.items():
        rr = reference[dt]
        se = np.hypot(
            rc.drops.std(ddof=1) / np.sqrt(rc.drops.size),
            rr.drops.std(ddof=1) / np.sqrt(rr.drops.size),
        )
        gaps[dt] = abs(rc.mean_drops - rr.mean_drops) / max(se, 1e-12)
    return gaps


def run_kernel_bench(
    kernel_name: str,
    quick: bool = False,
    seed: int = 0,
    json_path: Path | None = DEFAULT_JSON,
) -> dict:
    """Epoch-kernel comparison: ``kernel_name`` vs the NumPy reference.

    Bit-identity is required whenever the resolved kernel preserves the
    RNG-draw contract (every builtin does); the ≥ ``MIN_SPEEDUP``×
    wall-clock assertion only arms on the full sweep when the kernel is
    genuinely compiled — under the NumPy fallback there is nothing to
    measure, but the identity gauntlet still runs.
    """
    import warnings

    from repro.queueing.backends import get_backend

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        kernel = get_backend(kernel_name)
    for w in caught:
        print(f"[warning] {w.message}")

    delta_ts = QUICK_DELTA_TS if quick else FULL_DELTA_TS
    num_runs = 16 if quick else 32
    if kernel.compiled:
        # JIT warmup outside the timed region: one tiny sweep triggers
        # compilation of every njit loop so timings measure steady state.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_sweep(
                (2.0,), num_queues=10, num_runs=2, seed=seed,
                sim_backend=kernel_name,
            )
    reference, t_numpy = run_sweep(delta_ts, num_runs=num_runs, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        candidate, t_kernel = run_sweep(
            delta_ts, num_runs=num_runs, seed=seed, sim_backend=kernel_name
        )

    identical = all(
        np.array_equal(candidate[dt].drops, reference[dt].drops)
        for dt in delta_ts
    )
    gaps = equivalence_gaps(candidate, reference)
    worst = max(gaps.values())
    speedup = t_numpy / t_kernel

    rows = [
        [
            f"{dt:g}",
            f"{candidate[dt].mean_drops:.2f}",
            f"{reference[dt].mean_drops:.2f}",
            "yes" if np.array_equal(
                candidate[dt].drops, reference[dt].drops
            ) else f"|z|={gaps[dt]:.2f}",
        ]
        for dt in delta_ts
    ]
    print(
        format_table(
            ["Δt", f"{kernel.name} drops", "numpy drops", "bit-identical"],
            rows,
            title=(
                f"Epoch kernel '{kernel.name}' vs NumPy reference — "
                f"{num_runs} replicas, JSQ(2), "
                f"{'compiled' if kernel.compiled else 'fallback (no JIT)'}"
            ),
        )
    )
    print(
        f"\nwall-clock: numpy {t_numpy:.2f}s, {kernel.name} "
        f"{t_kernel:.2f}s -> {speedup:.1f}x speedup"
    )

    assert_speedup = bool(kernel.compiled and not quick)
    stats = {
        "benchmark": "batched_backend",
        "comparison": "kernel",
        "mode": "quick" if quick else "full",
        "requested_backend": kernel_name,
        "resolved_backend": kernel.name,
        "compiled": bool(kernel.compiled),
        "preserves_rng_contract": bool(kernel.preserves_rng_contract),
        "bit_identical": bool(identical),
        "wall_clock_s": {
            "numpy": round(t_numpy, 4),
            kernel.name: round(t_kernel, 4),
        },
        "speedup": round(speedup, 3),
        "worst_z": round(worst, 3),
        "scale": {
            "num_queues": 100,
            "num_clients": 400,
            "num_runs": num_runs,
            "delta_ts": list(delta_ts),
        },
        "min_speedup_asserted": MIN_SPEEDUP if assert_speedup else None,
    }
    if json_path is not None:
        json_path.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"[json written to {json_path}]")

    if kernel.preserves_rng_contract:
        assert identical, (
            f"kernel '{kernel.name}' claims to preserve the RNG-draw "
            "contract but diverged bitwise from the NumPy reference"
        )
    else:
        assert worst < 4.0, (
            f"kernel '{kernel.name}' disagrees statistically: "
            f"worst |z| = {worst:.2f}"
        )
    if assert_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"compiled kernel only {speedup:.1f}x faster than the NumPy "
            f"batched path (expected >= {MIN_SPEEDUP}x)"
        )
    elif kernel.compiled:
        print("[quick mode: speedup assertion skipped]")
    else:
        print("[kernel not compiled: speedup assertion skipped]")
    return stats


def test_batched_backend(benchmark, results_dir):
    """pytest-benchmark entry point (full sweep, numba vs NumPy)."""
    from conftest import run_once

    stats = run_once(benchmark, run_kernel_bench, "numba", quick=False)
    (results_dir / "batched_backend.txt").write_text(
        f"speedup={stats['speedup']:.2f}x bit_identical={stats['bit_identical']}\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid, identity check only (CI smoke)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend",
        default="numba",
        metavar="NAME",
        help="epoch kernel to compare against the NumPy reference "
        "(default: numba)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"machine-readable output path (default {DEFAULT_JSON})",
    )
    args = parser.parse_args(argv)
    run_kernel_bench(
        args.backend, quick=args.quick, seed=args.seed, json_path=args.json
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
