#!/usr/bin/env python3
"""Run the per-regime training campaign and package the checkpoints.

Trains one policy per regime (delayed Δt grid, ring / random-regular
graph, diurnal — see ``repro.experiments.campaign.default_regimes``),
warm-starting each from the packaged paper checkpoint for its Δt and
fine-tuning on the regime's true dynamics with age/occupancy context
features — at the regime's training fidelity: the delayed regimes
fine-tune on the *finite* deployment system
(``repro.queueing.finite_mdp.FiniteRegimeEnv``), the graph/diurnal
regimes on the mean-field proxy. Finished regimes are persisted as
content-addressed training shards in an experiment store, so an
interrupted campaign resumes bit-identically. Hosts sharing ``--store``
partition the regime list with ``--claim``, and each waits for the
regimes the others claimed; ``--merge-only`` packages the campaign
without training and exits 2 if a regime is missing from the store.

Usage:
    python scripts/train_regime_policies.py [--regimes dt5,dt7] \
        [--iterations 120] [--num-envs 4] [--store DIR] [--workers 2] \
        [--claim | --merge-only] [--out DIR] [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.execution import ExecutionContext, MissingShardsError
from repro.experiments.campaign import (
    TrainingBudget,
    campaign_ppo_config,
    default_regimes,
    package_policies,
    run_campaign,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regimes",
        default="",
        help="comma-separated regime names (default: all)",
    )
    parser.add_argument("--iterations", type=int, default=120)
    parser.add_argument(
        "--num-envs",
        type=int,
        default=4,
        help="independent-stream training envs per trainer",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="experiment store directory (enables resume)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="regime-level process pool"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--claim",
        action="store_true",
        help="claim regimes in the store and wait for those other hosts "
        "claimed (multi-host partitioning)",
    )
    mode.add_argument(
        "--merge-only",
        action="store_true",
        help="package every regime from the store without training "
        "(exit 2 if one is missing)",
    )
    parser.add_argument(
        "--stale-after",
        type=float,
        default=None,
        help="take over claims idle for this many seconds "
        "(longer than any one regime trains)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="checkpoint output directory (default: packaged assets)",
    )
    parser.add_argument(
        "--no-package",
        action="store_true",
        help="train (and store) only; skip writing checkpoints",
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny budget (CI smoke)"
    )
    args = parser.parse_args(argv)

    regimes = list(default_regimes())
    if args.regimes.strip():
        wanted = {name.strip() for name in args.regimes.split(",") if name.strip()}
        known = {r.name for r in regimes}
        unknown = wanted - known
        if unknown:
            parser.error(
                f"unknown regimes {sorted(unknown)}; have {sorted(known)}"
            )
        regimes = [r for r in regimes if r.name in wanted]

    iterations = 2 if args.quick else args.iterations
    budget = TrainingBudget(
        iterations=iterations,
        num_envs=args.num_envs,
        critic_warmup=1 if args.quick else 6,
        eval_episodes=4 if args.quick else 24,
    )
    ppo = campaign_ppo_config(args.seed, iterations=iterations)
    if args.quick:
        ppo = ppo.with_updates(
            train_batch_size=200, minibatch_size=100, num_epochs=2
        )
    if ppo.train_batch_size % args.num_envs != 0:
        parser.error(
            f"--num-envs must divide the PPO train batch size "
            f"{ppo.train_batch_size}, got {args.num_envs}"
        )

    store = None
    if args.store is not None:
        from repro.store.store import ExperimentStore

        store = ExperimentStore(args.store)
    if (args.claim or args.merge_only) and store is None:
        parser.error("--claim/--merge-only require --store")

    context = ExecutionContext(
        workers=args.workers,
        store=store,
        claim=args.claim,
        merge_only=args.merge_only,
    )
    t0 = time.perf_counter()
    try:
        results = run_campaign(
            regimes,
            ppo=ppo,
            budget=budget,
            seed=args.seed,
            context=context,
            stale_after=args.stale_after,
            verbose=True,
        )
    except MissingShardsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0

    for name in sorted(results):
        res = results[name]
        src = "store" if res.from_cache else "trained"
        print(
            f"[{name}] {src}: kept={res.meta.get('kept')} "
            f"return={res.meta.get('trained_return'):.2f}"
            if res.meta.get("trained_return") is not None
            else f"[{name}] {src}"
        )
    if not args.no_package:
        paths = package_policies(results, args.out)
        for name in sorted(paths):
            print(f"packaged {paths[name]}")
    print(f"campaign finished in {elapsed:.1f}s ({len(results)} regimes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
