"""Reusable backend-conformance harness.

Any simulation backend — current or future — is held to the same
gauntlet: run each environment family under the candidate backend and
compare against the NumPy reference. Contract-preserving backends
(``preserves_rng_contract = True``) must match **bit for bit**
(:func:`assert_traces_equal` on :func:`episode_trace` output); backends
that replace the host RNG sequence are held to the statistical
equivalence band of :func:`drops_z_score` instead. The parametrized
suite in ``tests/test_backend_conformance.py`` drives these helpers over
every registered backend, so registering a backend
(:func:`repro.queueing.backends.register_backend`) is all it takes to
enroll in the full test battery. ``benchmarks/bench_batched_backend.py``
does not use them; it compares the sweep drops of two backends with
checks of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.config import SystemConfig

__all__ = [
    "ConformanceFamily",
    "episode_trace",
    "assert_traces_equal",
    "drops_z_score",
    "CountingGenerator",
    "rng_call_log",
    "default_family_builders",
]


@dataclass(frozen=True)
class ConformanceFamily:
    """One environment family of the conformance gauntlet.

    ``build`` maps a backend name (or kernel instance) to a fresh
    environment; ``policy`` is a stationary policy matching the
    family's observed-state geometry.
    """

    name: str
    build: "Callable[[Any], Any]"
    policy: Any


def episode_trace(env, policy, num_epochs: int, seed) -> "dict[str, Any]":
    """One deterministic episode as a comparable array bundle.

    Runs ``num_epochs`` epochs from ``reset(seed)`` and records, per
    epoch, everything a backend could plausibly perturb: queue states,
    arrival modes, empirical distributions, frozen arrival rates, drop
    counts and rewards.
    """
    trace: "dict[str, Any]" = {
        "initial_hist": env.reset(seed),
        "queue_states": [],
        "lam_modes": [],
        "hists": [],
        "arrival_rates": [],
        "drops_total": [],
        "rewards": [],
    }
    for _ in range(num_epochs):
        hist, rewards, info = env.step_with_policy(policy)
        trace["queue_states"].append(env.queue_states)
        trace["lam_modes"].append(env.lam_modes)
        trace["hists"].append(hist)
        trace["arrival_rates"].append(info["arrival_rates"])
        trace["drops_total"].append(info["drops_total"])
        trace["rewards"].append(rewards)
    return {key: np.asarray(value) for key, value in trace.items()}


def assert_traces_equal(actual: dict, expected: dict) -> None:
    """Exact (bit-for-bit) equality of two :func:`episode_trace` bundles."""
    assert actual.keys() == expected.keys()
    for key in expected:
        a, b = np.asarray(actual[key]), np.asarray(expected[key])
        assert a.shape == b.shape, f"{key}: {a.shape} != {b.shape}"
        assert np.array_equal(a, b), f"{key} diverged between backends"


def drops_z_score(drops_a: np.ndarray, drops_b: np.ndarray) -> float:
    """Welch z-statistic between two per-replica total-drop samples.

    The statistical-equivalence band for backends that do not preserve
    the RNG call sequence: under the null (same drop distribution),
    ``|z|`` beyond ~4 flags a real behavioral difference rather than
    Monte-Carlo noise. Degenerate zero-variance pairs compare means
    exactly (``0.0`` when equal, ``inf`` otherwise).
    """
    a = np.asarray(drops_a, dtype=np.float64)
    b = np.asarray(drops_b, dtype=np.float64)
    var = a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
    gap = float(a.mean() - b.mean())
    if var == 0.0:
        return 0.0 if gap == 0.0 else float("inf")
    return gap / float(np.sqrt(var))


class CountingGenerator(np.random.Generator):
    """A :class:`numpy.random.Generator` that logs its draws.

    Records ``(method, count)`` entries, where ``count`` is the number of
    sampled values — the observable surface of the RNG-draw contract.
    Each call adds one entry, except for ``random``: uniform doubles
    fill sequentially, so ``K`` draws of ``n`` values consume the stream
    exactly like one draw of ``K·n``. Consecutive ``random`` calls
    therefore share one entry and an empty one adds none, so the log
    records the stream rather than how a kernel split its draws.
    Subclassing (rather than proxying) keeps
    ``isinstance(..., np.random.Generator)`` checks — e.g. in
    :func:`repro.utils.rng.as_generator` — working, and sharing the
    wrapped generator's bit generator continues its exact stream.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng.bit_generator)
        self.calls: "list[tuple[str, int]]" = []

    def _log(self, method: str, result) -> Any:
        count = int(np.asarray(result).size)
        if method == "random":
            if self.calls and self.calls[-1][0] == "random":
                count += self.calls.pop()[1]
            if count == 0:
                return result
        self.calls.append((method, count))
        return result

    def integers(self, *args, **kwargs):
        return self._log("integers", super().integers(*args, **kwargs))

    def random(self, *args, **kwargs):
        return self._log("random", super().random(*args, **kwargs))

    def poisson(self, *args, **kwargs):
        return self._log("poisson", super().poisson(*args, **kwargs))

    def multinomial(self, *args, **kwargs):
        return self._log(
            "multinomial", super().multinomial(*args, **kwargs)
        )

    def exponential(self, *args, **kwargs):
        return self._log(
            "exponential", super().exponential(*args, **kwargs)
        )


def rng_call_log(
    env, policy, num_epochs: int, seed: int
) -> "list[tuple[str, int]]":
    """The environment's RNG call sequence over one episode.

    Resets with a plain generator (so initial-state draws match normal
    runs), then swaps in a :class:`CountingGenerator` and steps
    ``num_epochs`` epochs. Two backends honoring the RNG-draw contract
    must produce identical logs.
    """
    env.reset(seed)
    original = env._rng
    counting = CountingGenerator(original)
    env._rng = counting
    try:
        for _ in range(num_epochs):
            env.step_with_policy(policy)
    finally:
        env._rng = original
    return counting.calls


def default_family_builders(
    config: "SystemConfig", num_replicas: int = 2, seed: int = 0
) -> "dict[str, ConformanceFamily]":
    """Every batched environment family, keyed by name.

    The parametrization surface of the conformance suite: families
    cover both choose-stage modes (committed and per-packet), the
    graph/heterogeneous/delayed variants, the infinite-client system
    (serve stage only) and the hybrid finite/mean-field fleet (half
    tracked, half closed by the mean-field propagator), each paired
    with a stationary policy of matching observed-state geometry.
    """
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.batched_env import (
        BatchedFiniteSystemEnv,
        BatchedInfiniteClientEnv,
    )
    from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
    from repro.queueing.delays import IIDDelay
    from repro.queueing.graph_env import BatchedGraphFiniteEnv
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv
    from repro.queueing.heterogeneous import (
        BatchedHeterogeneousFiniteEnv,
        ServerClassSpec,
        sed_policy_suite,
    )
    from repro.queueing.topology import TopologySpec

    spec = ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))
    jsq = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    sed = sed_policy_suite(spec, config.buffer_size, config.d)[
        f"SED({config.d})"
    ]

    families = [
        ConformanceFamily(
            "dense-per-packet",
            lambda backend: BatchedFiniteSystemEnv(
                config,
                num_replicas=num_replicas,
                per_packet_randomization=True,
                seed=seed,
                backend=backend,
            ),
            jsq,
        ),
        ConformanceFamily(
            "dense-committed",
            lambda backend: BatchedFiniteSystemEnv(
                config,
                num_replicas=num_replicas,
                per_packet_randomization=False,
                seed=seed,
                backend=backend,
            ),
            jsq,
        ),
        ConformanceFamily(
            "graph",
            lambda backend: BatchedGraphFiniteEnv(
                config,
                TopologySpec.ring(config.num_queues, radius=2),
                num_replicas=num_replicas,
                per_packet_randomization=True,
                seed=seed,
                backend=backend,
            ),
            jsq,
        ),
        ConformanceFamily(
            "heterogeneous",
            lambda backend: BatchedHeterogeneousFiniteEnv(
                config,
                spec,
                num_replicas=num_replicas,
                per_packet_randomization=True,
                seed=seed,
                backend=backend,
            ),
            sed,
        ),
        ConformanceFamily(
            "delayed",
            lambda backend: BatchedDelayedFiniteEnv(
                config,
                num_replicas=num_replicas,
                delay_model=IIDDelay((0.5, 0.3, 0.2)),
                seed=seed,
                backend=backend,
            ),
            jsq,
        ),
        ConformanceFamily(
            "infinite-client",
            lambda backend: BatchedInfiniteClientEnv(
                config,
                num_replicas=num_replicas,
                seed=seed,
                backend=backend,
            ),
            jsq,
        ),
        ConformanceFamily(
            "hybrid",
            lambda backend: BatchedHybridFleetEnv(
                config,
                num_replicas=num_replicas,
                num_tracked=max(1, config.num_queues // 2),
                per_packet_randomization=True,
                seed=seed,
                backend=backend,
            ),
            jsq,
        ),
    ]
    return {family.name: family for family in families}
