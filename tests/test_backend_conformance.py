"""Backend-conformance gauntlet (tentpole gate).

Parametrized over (environment family × registered backend): every
kernel resolved through :func:`repro.queueing.backends.get_backend`
must honor the shape/dtype surface, conserve arrival mass, account for
drops exactly, reproduce seeds, keep the RNG call sequence of the
protocol's draw contract, and — for contract-preserving backends — stay
bit-identical to the NumPy reference, including through the ``E = 1``
scalar wrappers.

On hosts without numba the ``"numba"`` name resolves to the NumPy
kernel (fallback), so the cross-backend comparisons degenerate to
trivially-true there — but the *pure-Python* numba loops are still
pinned against the reference kernel directly
(``NumbaEpochKernel(require_numba=False)``), so the compiled
algorithm cannot drift unnoticed on any host. CI's numba leg runs the
identical suite under real JIT.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.backends import (
    BackendSpec,
    EpochKernel,
    available_backends,
    draw_uniform_queue_samples,
    get_backend,
    preserves_rng_contract,
    register_backend,
)
from repro.queueing.backends.conformance import (
    CountingGenerator,
    assert_traces_equal,
    default_family_builders,
    drops_z_score,
    episode_trace,
    rng_call_log,
)
from repro.queueing.backends.numba_backend import (
    NumbaEpochKernel,
    numba_available,
)
from repro.queueing.backends.numpy_backend import NumpyEpochKernel
from repro.queueing.backends.registry import _INSTANCES, _REGISTRY
from repro.queueing.clients import stack_rules

CONFIG = SystemConfig(
    num_clients=60,
    num_queues=8,
    buffer_size=5,
    d=2,
    delta_t=1.5,
    episode_length=10,
    monte_carlo_runs=2,
)
EPOCHS = 6
SEED = 7
BACKENDS = available_backends()
FAMILIES = default_family_builders(CONFIG, num_replicas=2, seed=SEED)


def _build(family_name: str, backend: str):
    """Construct one family env, silencing the fallback warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return FAMILIES[family_name].build(backend)


def _params():
    return [
        pytest.param(family, backend, id=f"{family}-{backend}")
        for family in FAMILIES
        for backend in BACKENDS
    ]


class TestProtocolSurface:
    def test_builtin_kernels_satisfy_protocol(self):
        for name in BACKENDS:
            kernel = _silent_get(name)
            assert isinstance(kernel, EpochKernel)
            assert isinstance(kernel.name, str)
            assert isinstance(kernel.compiled, bool)
            assert isinstance(kernel.preserves_rng_contract, bool)

    def test_registry_round_trip_and_pickling(self):
        numpy_kernel = get_backend("numpy")
        assert get_backend(None) is numpy_kernel  # singleton default
        assert get_backend(numpy_kernel) is numpy_kernel  # passthrough
        assert pickle.loads(pickle.dumps(numpy_kernel)) is numpy_kernel

    def test_auto_resolves_to_runnable(self):
        kernel = get_backend("auto")
        if numba_available():
            assert kernel.name == "numba"  # highest priority when runnable
        else:
            assert kernel.name == "numpy"

    def test_unknown_backend_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="registered"):
            get_backend("fortran")
        with pytest.raises(KeyError, match="registered"):
            preserves_rng_contract("fortran")

    def test_fallback_warns_and_preserves_streams(self):
        if numba_available():
            pytest.skip("numba installed: the name resolves natively")
        with pytest.warns(RuntimeWarning, match="falling back"):
            kernel = get_backend("numba")
        assert kernel is get_backend("numpy")

    def test_builtins_preserve_rng_contract(self):
        for name in (*BACKENDS, "auto"):
            assert preserves_rng_contract(name)


@pytest.mark.parametrize("family,backend", _params())
class TestFamilyConformance:
    def test_shapes_dtypes_and_drop_accounting(self, family, backend):
        env = _build(family, backend)
        e, m = env.num_replicas, CONFIG.num_queues
        # The hybrid fleet tracks a subsystem exactly; state-level
        # assertions apply to the tracked slice, mass conservation to
        # the whole fleet (tracked rates + field arrival mass).
        m_tracked = getattr(env, "num_tracked", m)
        env.reset(SEED)
        policy = FAMILIES[family].policy
        for _ in range(EPOCHS):
            lam = env.current_rates
            hist, rewards, info = env.step_with_policy(policy)
            states = env.queue_states
            assert states.shape == (e, m_tracked)
            assert states.dtype == np.int64
            assert states.min() >= 0 and states.max() <= CONFIG.buffer_size
            assert hist.shape[0] == e
            assert np.allclose(hist.sum(axis=1), 1.0)
            assert info["arrival_rates"].shape == (e, m_tracked)
            assert np.all(info["arrival_rates"] >= 0.0)
            # Arrival-mass conservation: the frozen per-queue rates thin
            # the total offered load M·λ_t without creating or losing
            # mass (Eq. 5 / Eq. 14); for the hybrid fleet the field
            # closure absorbs exactly the residual mass.
            np.testing.assert_allclose(
                info["arrival_rates"].sum(axis=1)
                + info.get("field_arrival_mass", 0.0),
                m * lam,
                rtol=1e-9,
            )
            # Drop accounting: rewards are exactly the drop penalty.
            # Fully tracked fleets count drops in integers; a mean-field
            # half adds its expected (float) drops.
            if m_tracked == m:
                assert info["drops_total"].dtype.kind == "i"
            assert np.all(info["drops_total"] >= 0)
            np.testing.assert_array_equal(
                rewards,
                -CONFIG.drop_penalty * info["drops_total"] / m,
            )

    def test_seed_reproducibility(self, family, backend):
        policy = FAMILIES[family].policy
        first = episode_trace(_build(family, backend), policy, EPOCHS, SEED)
        second = episode_trace(_build(family, backend), policy, EPOCHS, SEED)
        assert_traces_equal(second, first)
        other = episode_trace(
            _build(family, backend), policy, EPOCHS, SEED + 1
        )
        assert any(
            not np.array_equal(other[key], first[key]) for key in first
        )

    def test_rng_draw_count_stability(self, family, backend):
        """Same RNG call sequence as the reference backend — the
        observable surface of the protocol's draw contract."""
        policy = FAMILIES[family].policy
        log = rng_call_log(_build(family, backend), policy, EPOCHS, SEED)
        reference = rng_call_log(
            _build(family, "numpy"), policy, EPOCHS, SEED
        )
        assert log == reference

    def test_bit_identity_with_reference(self, family, backend):
        """Contract-preserving backends match NumPy bit for bit."""
        if not preserves_rng_contract(backend):
            pytest.skip("backend is held to the statistical band instead")
        policy = FAMILIES[family].policy
        actual = episode_trace(_build(family, backend), policy, EPOCHS, SEED)
        expected = episode_trace(
            _build(family, "numpy"), policy, EPOCHS, SEED
        )
        assert_traces_equal(actual, expected)


def _committed_env(kind: str):
    """One committed-routing environment of each family."""
    from repro.queueing.batched_env import BatchedFiniteSystemEnv
    from repro.queueing.graph_env import BatchedGraphFiniteEnv
    from repro.queueing.heterogeneous import (
        BatchedHeterogeneousFiniteEnv,
        ServerClassSpec,
        sed_policy_suite,
    )
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv
    from repro.queueing.topology import TopologySpec

    jsq = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
    if kind == "dense":
        return BatchedFiniteSystemEnv(CONFIG, num_replicas=2), jsq
    if kind == "graph":
        ring = TopologySpec.ring(CONFIG.num_queues, radius=1)
        return BatchedGraphFiniteEnv(CONFIG, ring, num_replicas=2), jsq
    if kind == "heterogeneous":
        spec = ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))
        sed = sed_policy_suite(spec, CONFIG.buffer_size, CONFIG.d)["SED(2)"]
        return BatchedHeterogeneousFiniteEnv(CONFIG, spec, num_replicas=2), sed
    return (
        BatchedHybridFleetEnv(
            CONFIG, num_replicas=2, num_tracked=CONFIG.num_queues // 2
        ),
        jsq,
    )


class TestCommittedDrawContract:
    """RNG-contract item (b): a committed epoch routes with exactly one
    host-side ``multinomial`` draw, made right before the serve stage's
    ``poisson``, and samples no client."""

    @pytest.mark.parametrize(
        "kind, draw_size",
        [
            ("dense", 2 * CONFIG.num_queues),
            # Eight distinct radius-1 neighborhoods of three queues each.
            ("graph", 2 * CONFIG.num_queues * 3),
            ("heterogeneous", 2 * CONFIG.num_queues),
            ("hybrid", 2 * CONFIG.num_queues),
        ],
    )
    def test_one_multinomial_before_serve(self, kind, draw_size):
        env, policy = _committed_env(kind)
        log = rng_call_log(env, policy, EPOCHS, SEED)
        methods = [method for method, _ in log]
        assert "integers" not in methods
        routing = [i for i, method in enumerate(methods) if method == "multinomial"]
        assert len(routing) == EPOCHS
        for i in routing:
            assert log[i] == ("multinomial", draw_size)
            assert methods[i + 1] == "poisson"
        # Before the first routing draw only the hybrid draws anything:
        # its virtual field states.
        first_serve = methods.index("poisson")
        before = methods[:first_serve]
        assert before == (
            ["random", "multinomial"] if kind == "hybrid" else ["multinomial"]
        )


class TestPurePythonNumbaLoops:
    """Pin the numba loop *algorithm* against the reference kernel.

    Runs on every host: without numba the loops execute as plain Python
    (the ``njit`` shim), so their arithmetic — (e, n, k) accumulation
    order, per-cell event replay — is verified bit-for-bit even where
    JIT is unavailable. The committed stage of both kernels is the
    shared NumPy reference.
    """

    @pytest.fixture()
    def kernels(self):
        return NumpyEpochKernel(), NumbaEpochKernel(require_numba=False)

    @pytest.fixture()
    def choose_inputs(self):
        rng = np.random.default_rng(SEED)
        e, n, m = 3, 50, CONFIG.num_queues
        observed = rng.integers(0, CONFIG.num_queue_states, size=(e, m))
        policy = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
        rule = policy.decision_rule(np.ones(6) / 6.0, 0, rng)
        probs = stack_rules(rule, e)
        sampled = draw_uniform_queue_samples(rng, e, n, CONFIG.d, m)
        return observed, sampled, probs

    def test_committed_counts_bit_identical(self, kernels, choose_inputs):
        reference, candidate = kernels
        observed, sampled, probs = choose_inputs
        a = reference.committed_counts(
            observed, sampled, probs, np.random.default_rng(11)
        )
        b = candidate.committed_counts(
            observed, sampled, probs, np.random.default_rng(11)
        )
        np.testing.assert_array_equal(a, b)
        assert a.sum() == sampled.shape[0] * sampled.shape[1]

    def test_packet_fractions_bit_identical(self, kernels, choose_inputs):
        reference, candidate = kernels
        observed, sampled, probs = choose_inputs
        a = reference.packet_fractions(observed, sampled, probs, 50)
        b = candidate.packet_fractions(observed, sampled, probs, 50)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a.sum(axis=1), 1.0)

    def test_serve_epoch_bit_identical(self, kernels):
        reference, candidate = kernels
        rng = np.random.default_rng(SEED)
        e, m = 4, CONFIG.num_queues
        states = rng.integers(0, CONFIG.buffer_size + 1, size=(e, m))
        arrival = rng.uniform(0.1, 3.0, size=(e, m))
        service = rng.uniform(0.5, 2.0, size=m)
        # Cells without events, a typical epoch, and dozens of rounds.
        for delta_t in (0.05, 1.5, 10.0):
            rng_a = np.random.default_rng(11)
            rng_b = np.random.default_rng(11)
            sa, da = reference.serve_epoch(
                states, arrival, service, delta_t, CONFIG.buffer_size, rng_a
            )
            sb, db = candidate.serve_epoch(
                states, arrival, service, delta_t, CONFIG.buffer_size, rng_b
            )
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(da, db)
            assert sb.dtype == np.int64 and db.dtype == np.int64
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "kernel",
        [NumpyEpochKernel(), NumbaEpochKernel(require_numba=False)],
        ids=["numpy", "numba-loops"],
    )
    def test_serve_draws_one_uniform_per_event(self, kernel):
        """Contract items (c) and (d): a serve call draws the ``E·M``
        event counts, then one uniform per event, not one per cell and
        event round."""
        rng = np.random.default_rng(SEED)
        e, m = 3, CONFIG.num_queues
        states = rng.integers(0, CONFIG.buffer_size + 1, size=(e, m))
        arrival = rng.uniform(0.1, 3.0, size=(e, m))
        counting = CountingGenerator(np.random.default_rng(11))
        replay = np.random.default_rng(11)
        expected = []
        for delta_t in (0.5, 1.5, 4.0):
            kernel.serve_epoch(
                states, arrival, 1.0, delta_t, CONFIG.buffer_size, counting
            )
            events = int(replay.poisson((arrival + 1.0) * delta_t).sum())
            replay.random(events)
            expected += [("poisson", e * m), ("random", events)]
        assert counting.calls == expected
        assert counting.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rng_call_log_matches_reference(self, kernels, family):
        """Contract item (d) on every host: the loops' one block of
        ``Σ num_events`` uniforms consumes the stream of the reference
        kernel's per-round blocks, so both call logs agree."""
        reference, candidate = kernels
        policy = FAMILIES[family].policy
        log = rng_call_log(
            FAMILIES[family].build(candidate), policy, EPOCHS, SEED
        )
        assert log == rng_call_log(
            FAMILIES[family].build(reference), policy, EPOCHS, SEED
        )

    def test_require_numba_guards_construction(self):
        if numba_available():
            NumbaEpochKernel(require_numba=True)  # must not raise
        else:
            with pytest.raises(ModuleNotFoundError, match="numba"):
                NumbaEpochKernel(require_numba=True)


class _MirrorKernel(NumpyEpochKernel):
    """A third-party kernel that *breaks* the draw contract: it burns
    one extra uniform per serve call, shifting every later draw."""

    name = "mirror"
    preserves_rng_contract = False

    def serve_epoch(self, states, arrival_rates, service_rates, delta_t,
                    buffer_size, rng):
        rng.random()
        return super().serve_epoch(
            states, arrival_rates, service_rates, delta_t, buffer_size, rng
        )


class TestThirdPartyRegistration:
    """Registering a backend is all it takes to enroll in the gauntlet
    — and contract-breaking backends are held to the statistical band
    and get their own shard-cache key space."""

    @pytest.fixture()
    def mirror(self):
        register_backend(
            BackendSpec(
                name="mirror",
                factory=_MirrorKernel,
                preserves_rng_contract=False,
            )
        )
        yield "mirror"
        _REGISTRY.pop("mirror", None)
        _INSTANCES.pop("mirror", None)

    def test_resolves_and_reports_contract(self, mirror):
        assert mirror in available_backends()
        assert isinstance(get_backend(mirror), EpochKernel)
        assert not preserves_rng_contract(mirror)
        assert not preserves_rng_contract("auto")  # mirror taints auto

    def test_statistical_equivalence_band(self, mirror):
        from repro.queueing.batched_env import (
            BatchedFiniteSystemEnv,
            run_episodes_batched,
        )

        policy = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
        drops = {}
        for backend in ("numpy", mirror):
            env = BatchedFiniteSystemEnv(
                CONFIG,
                num_replicas=24,
                per_packet_randomization=True,
                backend=backend,
            )
            result = run_episodes_batched(
                env, policy, num_epochs=EPOCHS, seed=SEED
            )
            drops[backend] = result.total_drops_per_queue
        # Different streams, same distribution: inside the z band but
        # not bit-identical.
        assert abs(drops_z_score(drops["numpy"], drops[mirror])) < 4.0
        assert not np.array_equal(drops["numpy"], drops[mirror])

    def test_contract_breaking_backend_gets_own_key_space(self, mirror):
        from repro.experiments.parallel import EvalRequest, _decompose
        from repro.store.keys import shard_key

        policy = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
        base = EvalRequest(
            config=CONFIG, policy=policy, num_runs=4, seed=SEED
        )
        mirrored = EvalRequest(
            config=CONFIG, policy=policy, num_runs=4, seed=SEED,
            sim_backend=mirror,
        )
        numba_named = EvalRequest(
            config=CONFIG, policy=policy, num_runs=4, seed=SEED,
            sim_backend="numba",
        )
        shard = _decompose([base])[0]
        assert shard_key(base, shard) == shard_key(numba_named, shard)
        assert shard_key(base, shard) != shard_key(mirrored, shard)


def _silent_get(name: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return get_backend(name)


@pytest.mark.parametrize("backend", BACKENDS)
def test_hybrid_chunk_merge_invariance(backend):
    """The hybrid fleet rides the sharded sweep machinery like any
    batched env: merged drops are bit-identical across worker counts
    (same chunk layout, any execution order)."""
    from repro.experiments.parallel import EvalRequest, SweepExecutor
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    policy = JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)
    request = EvalRequest(
        config=CONFIG,
        policy=policy,
        num_runs=6,
        num_epochs=EPOCHS,
        seed=SEED,
        max_batch_replicas=2,
        env_cls=BatchedHybridFleetEnv,
        env_kwargs={
            "num_tracked": CONFIG.num_queues // 2,
            "per_packet_randomization": True,
        },
        sim_backend=backend,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        serial = SweepExecutor(workers=1).run_drops([request])[0]
        pooled = SweepExecutor(workers=2).run_drops([request])[0]
    np.testing.assert_array_equal(serial, pooled)
    assert serial.shape == (6,)


def test_heterogeneous_scalar_run_episode_records_observed_widths():
    """Regression (Z-width bug class): the episode runner sized its
    distribution buffer from ``config.num_queue_states`` even for
    environments that observe S·C states — a single heterogeneous
    system crashed (or silently truncated) with
    ``record_distributions=True``."""
    from repro.queueing.batched_env import run_episodes_batched
    from repro.queueing.heterogeneous import (
        BatchedHeterogeneousFiniteEnv,
        ServerClassSpec,
        sed_policy_suite,
    )

    spec = ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))
    env = BatchedHeterogeneousFiniteEnv(
        CONFIG, spec, num_replicas=1, per_packet_randomization=True, seed=SEED
    )
    policy = sed_policy_suite(spec, CONFIG.buffer_size, CONFIG.d)[
        f"SED({CONFIG.d})"
    ]
    result = run_episodes_batched(
        env, policy, num_epochs=EPOCHS, seed=SEED, record_distributions=True
    )
    width = spec.num_observed_states(CONFIG.buffer_size)
    assert width == CONFIG.num_queue_states * spec.num_classes
    assert result.empirical_distributions.shape == (1, EPOCHS + 1, width)
    np.testing.assert_allclose(
        result.empirical_distributions.sum(axis=2), 1.0
    )
