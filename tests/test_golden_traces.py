"""Fixed-seed golden-trace regression tests.

Every environment family pins one small fixed-seed reference trace
(queue-length trajectories, per-epoch drops, arrival modes) plus one
merged sweep-mean table to JSON files committed under ``tests/golden/``.
The tests assert **exact** equality — JSON serializes floats via
``repr`` (shortest round-trip), so a committed value survives the
round-trip bit-for-bit — which makes any refactor of the hot path that
silently changes the random streams fail loudly instead of drifting the
paper's numbers.

If a stream change is *intentional* (a new kernel, a different chunk
layout), regenerate the references explicitly and re-commit them::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

and call out the regeneration in the PR description.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    run_episodes_batched,
)
from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
from repro.queueing.delays import IIDDelay
from repro.queueing.graph_env import BatchedGraphFiniteEnv
from repro.queueing.heterogeneous import (
    BatchedHeterogeneousFiniteEnv,
    ServerClassSpec,
    sed_policy_suite,
)
from repro.queueing.topology import TopologySpec
from repro.scenarios import run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REGEN = os.environ.get("GOLDEN_REGEN") == "1"

_CONFIG = SystemConfig(
    num_clients=120,
    num_queues=12,
    buffer_size=5,
    d=2,
    delta_t=2.0,
    episode_length=20,
    monte_carlo_runs=3,
)
_EPOCHS = 12
_SEED = 20260731


def _trace_payload(env, policy) -> dict:
    """One deterministic episode as plain JSON-able lists."""
    result = run_episodes_batched(
        env, policy, num_epochs=_EPOCHS, seed=_SEED,
        record_distributions=True,
    )
    return {
        "queue_states": env.queue_states.tolist(),
        "lam_modes": env.lam_modes.tolist(),
        "per_epoch_drops": result.per_epoch_drops.tolist(),
        "total_drops_per_queue": result.total_drops_per_queue.tolist(),
        "empirical_distributions": result.empirical_distributions.tolist(),
    }


def _build_paper_trace() -> dict:
    env = BatchedFiniteSystemEnv(
        _CONFIG, num_replicas=2, per_packet_randomization=True, seed=_SEED
    )
    return _trace_payload(env, JoinShortestQueuePolicy(6, 2))


def _build_heterogeneous_trace() -> dict:
    spec = ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))
    env = BatchedHeterogeneousFiniteEnv(
        _CONFIG, spec, num_replicas=2, per_packet_randomization=True,
        seed=_SEED,
    )
    policy = sed_policy_suite(spec, _CONFIG.buffer_size, _CONFIG.d)["SED(2)"]
    return _trace_payload(env, policy)


def _build_graph_trace() -> dict:
    env = BatchedGraphFiniteEnv(
        _CONFIG,
        TopologySpec.ring(_CONFIG.num_queues, radius=2),
        num_replicas=2,
        per_packet_randomization=True,
        seed=_SEED,
    )
    return _trace_payload(env, JoinShortestQueuePolicy(6, 2))


def _build_compiled_backend_trace() -> dict:
    """Delayed family under the compiled kernel.

    On hosts without numba the registry falls back to the NumPy kernel
    with identical streams, so this reference is valid either way; the
    CI numba leg runs the same builder under real JIT and must match it
    bit for bit.
    """
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        env = BatchedDelayedFiniteEnv(
            _CONFIG,
            num_replicas=2,
            delay_model=IIDDelay((0.5, 0.3, 0.2)),
            seed=_SEED,
            backend="numba",
        )
    return _trace_payload(env, JoinShortestQueuePolicy(6, 2))


def _build_chaos_trace() -> dict:
    """Dense family under a composite degradation schedule: a
    preservation outage with restart plus a capacity flap, all inside
    the 12 reference epochs. Pins the event arithmetic (water-fill,
    rate masking, blackhole accounting) against stream drift."""
    from repro.queueing.chaos import (
        CapacityFlap,
        DegradationSchedule,
        ServerOutage,
    )

    schedule = DegradationSchedule(
        (
            CapacityFlap(epoch=2, factor=0.5, fraction=0.5, end_epoch=9),
            ServerOutage(
                epoch=4, fraction=0.25, restart_epoch=8, preserve_jobs=True
            ),
        )
    )
    env = BatchedFiniteSystemEnv(
        _CONFIG,
        num_replicas=2,
        per_packet_randomization=True,
        seed=_SEED,
        chaos=schedule,
    )
    return _trace_payload(env, JoinShortestQueuePolicy(6, 2))


def _build_hybrid_trace() -> dict:
    """Hybrid finite/mean-field family: half the fleet tracked exactly,
    half closed by the mean-field propagator. Pins the coupling (virtual
    field-state sampling, arrival-mass split, closure propagation)
    against stream drift."""
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    env = BatchedHybridFleetEnv(
        _CONFIG,
        num_replicas=2,
        num_tracked=_CONFIG.num_queues // 2,
        per_packet_randomization=True,
        seed=_SEED,
    )
    return _trace_payload(env, JoinShortestQueuePolicy(6, 2))


def _mfc_episode(env) -> dict:
    """One MFC episode under seeded raw actions, as plain lists."""
    actions = np.random.default_rng(_SEED).normal(
        0.0, 0.5, size=(_EPOCHS, env.action_size)
    )
    observations = [env.reset(seed=_SEED).tolist()]
    rewards, drops, regimes = [], [], []
    for action in actions:
        obs, reward, _, info = env.step_raw(action)
        observations.append(obs.tolist())
        rewards.append(reward)
        drops.append(info["drops"])
        regimes.append(info.get("delay_regime", 0))
    return {
        "observations": observations,
        "rewards": rewards,
        "drops": drops,
        "delay_regimes": regimes,
    }


def _build_meanfield_family_trace() -> dict:
    """The mean-field models no other reference pins: the delayed MFC
    env (two delay models, live age features), the delayed hybrid fleet
    and the three-class heterogeneous model."""
    from repro.meanfield.delayed_env import DelayedMeanFieldEnv
    from repro.meanfield.features import ObservationFeatures
    from repro.meanfield.heterogeneous import HeterogeneousMeanFieldModel
    from repro.queueing.delays import MarkovModulatedDelay
    from repro.queueing.heterogeneous import sed_rule
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    features = ObservationFeatures(age=True, occupancy=True, live_age=True)
    delay_models = {
        "iid": IIDDelay((0.5, 0.3, 0.2)),
        # Degrade often enough that both regimes occur within the trace.
        "synced-degraded": MarkovModulatedDelay.synced_degraded(
            p_degrade=0.5
        ),
    }
    delayed_env = {
        f"{name}-exact": _mfc_episode(
            DelayedMeanFieldEnv(
                _CONFIG,
                horizon=_EPOCHS,
                seed=_SEED,
                delay_model=model,
                features=features,
            )
        )
        for name, model in delay_models.items()
    }
    hybrid = BatchedHybridFleetEnv(
        _CONFIG,
        num_replicas=2,
        num_tracked=_CONFIG.num_queues // 2,
        delay_model=IIDDelay((0.5, 0.3, 0.2)),
        per_packet_randomization=True,
        seed=_SEED,
    )
    spec = ServerClassSpec(
        service_rates=(0.5, 1.0, 2.0), fractions=(0.3, 0.3, 0.4)
    )
    model = HeterogeneousMeanFieldModel(_CONFIG, spec)
    rule = sed_rule(spec, _CONFIG.buffer_size, _CONFIG.d)
    nu = model.initial_distribution()
    nus, drops = [nu.tolist()], []
    for t in range(_EPOCHS):
        lam = _CONFIG.arrival_rate_high if t % 3 else _CONFIG.arrival_rate_low
        nu, d = model.epoch_update(nu, rule, lam)
        nus.append(nu.tolist())
        drops.append(d)
    return {
        "delayed_env": delayed_env,
        "hybrid_delayed": _trace_payload(hybrid, JoinShortestQueuePolicy(6, 2)),
        "heterogeneous": {"nus": nus, "drops": drops},
    }


def _build_claimed_sweep() -> dict:
    """Two claim-mode executors racing on one shared store directory —
    an in-process stand-in for two hosts partitioning a sweep. Pins the
    merged per-replica drops (which the claiming protocol must keep
    bit-identical to a single-host run) plus the single-host reference
    itself, so the file fails loudly if either side drifts."""
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.experiments.parallel import EvalRequest, SweepExecutor
    from repro.store.store import ExperimentStore

    requests = [
        EvalRequest(
            config=_CONFIG,
            policy=JoinShortestQueuePolicy(6, 2),
            num_runs=4,
            num_epochs=6,
            seed=_SEED + offset,
            max_batch_replicas=2,
            env_kwargs={"per_packet_randomization": True},
        )
        for offset in (0, 1)
    ]
    single = SweepExecutor(workers=1).run_drops(requests)
    with tempfile.TemporaryDirectory() as tmp:
        store = ExperimentStore(tmp)

        def claimant(owner: str):
            executor = SweepExecutor(
                workers=1, store=store, claim=True, claim_owner=owner
            )
            return executor.run_drops(requests)

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(claimant, f"node-{i}") for i in (0, 1)]
            merged = [f.result() for f in futures]
    for node in merged:
        for a, b in zip(node, single):
            assert np.array_equal(a, b)
    return {
        "single_host": [drops.tolist() for drops in single],
        "node_0": [drops.tolist() for drops in merged[0]],
        "node_1": [drops.tolist() for drops in merged[1]],
    }


def _build_sweep_means() -> dict:
    """Merged sweep means for one scenario per family (tiny grids)."""
    payload = {}
    for name in ("overload", "heterogeneous-sed", "random-regular"):
        result = run_scenario(
            name, delta_ts=(2.0, 5.0), num_queues=10, num_runs=2, seed=_SEED
        )
        payload[name] = {
            policy: {
                "means": [r.mean_drops for r in series],
                "lower": [r.interval.lower for r in series],
                "upper": [r.interval.upper for r in series],
            }
            for policy, series in result.results.items()
        }
    return payload


_BUILDERS = {
    "paper_family_trace.json": _build_paper_trace,
    "heterogeneous_family_trace.json": _build_heterogeneous_trace,
    "graph_family_trace.json": _build_graph_trace,
    "compiled_backend_trace.json": _build_compiled_backend_trace,
    "chaos_family_trace.json": _build_chaos_trace,
    "hybrid_family_trace.json": _build_hybrid_trace,
    "meanfield_family_trace.json": _build_meanfield_family_trace,
    "claimed_sweep_trace.json": _build_claimed_sweep,
    "sweep_means.json": _build_sweep_means,
}


@pytest.mark.parametrize("filename", sorted(_BUILDERS))
def test_golden_trace_exact(filename):
    """The simulated streams reproduce the committed references exactly."""
    path = GOLDEN_DIR / filename
    actual = _BUILDERS[filename]()
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; regenerate with "
            "GOLDEN_REGEN=1 and commit it"
        )
    expected = json.loads(path.read_text())
    # Exact comparison, not approx: JSON floats round-trip bit-for-bit.
    assert actual == expected, (
        f"{filename} diverged from the committed reference — the random "
        "stream or merge layout changed. If intentional, regenerate with "
        "GOLDEN_REGEN=1 and commit the new trace."
    )


def test_numba_fallback_reproduces_numpy_golden_stream():
    """With numba absent (or the numba kernel's RNG contract intact) a
    ``backend="numba"`` dense environment must reproduce the committed
    *NumPy* reference exactly — the fallback is stream-identical, not
    merely statistically close."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        env = BatchedFiniteSystemEnv(
            _CONFIG,
            num_replicas=2,
            per_packet_randomization=True,
            seed=_SEED,
            backend="numba",
        )
    actual = _trace_payload(env, JoinShortestQueuePolicy(6, 2))
    expected = json.loads(
        (GOLDEN_DIR / "paper_family_trace.json").read_text()
    )
    assert actual == expected


def test_golden_traces_are_nontrivial():
    """Guard the references themselves: traces must contain activity
    (occupied queues, at least one drop somewhere) so an all-zeros file
    cannot silently pass the equality check."""
    paper = json.loads((GOLDEN_DIR / "paper_family_trace.json").read_text())
    assert np.asarray(paper["queue_states"]).max() > 0
    assert np.asarray(paper["per_epoch_drops"]).shape == (2, _EPOCHS)
    sweep = json.loads((GOLDEN_DIR / "sweep_means.json").read_text())
    assert set(sweep) == {"overload", "heterogeneous-sed", "random-regular"}
    overload_means = [
        m for series in sweep["overload"].values() for m in series["means"]
    ]
    assert max(overload_means) > 0
    hybrid = json.loads(
        (GOLDEN_DIR / "hybrid_family_trace.json").read_text()
    )
    assert np.asarray(hybrid["queue_states"]).shape == (2, _CONFIG.num_queues // 2)
    assert np.asarray(hybrid["per_epoch_drops"]).max() > 0
    claimed = json.loads(
        (GOLDEN_DIR / "claimed_sweep_trace.json").read_text()
    )
    assert claimed["node_0"] == claimed["single_host"] == claimed["node_1"]
    assert np.asarray(claimed["single_host"][0]).shape == (4,)
