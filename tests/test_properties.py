"""Cross-cutting property-based tests (hypothesis).

These encode the invariants listed in DESIGN.md §6 over *randomized*
rules, distributions and parameters — the places where a subtle indexing
or normalization bug would silently skew every experiment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import (
    epoch_update,
    per_state_arrival_rates,
    propagate_state,
)
from repro.meanfield.stationary import stationary_distribution
from repro.queueing.clients import (
    expected_choice_counts,
    infinite_client_rates_batched,
)

S, D = 4, 2
RAW = arrays(
    np.float64,
    st.just(S**D * D),
    elements=st.floats(-3, 3, allow_nan=False),
)
SIMPLEX_WEIGHTS = arrays(
    np.float64, st.just(S), elements=st.floats(0.01, 10.0, allow_nan=False)
)


def _nu(weights: np.ndarray) -> np.ndarray:
    return weights / weights.sum()


@given(raw=RAW, weights=SIMPLEX_WEIGHTS, lam=st.floats(0.01, 2.0))
@settings(max_examples=60, deadline=None)
def test_arrival_mass_identity(raw, weights, lam):
    """Σ_z ν(z) λ(ν,z) = λ for every rule/distribution/intensity."""
    rule = DecisionRule.from_raw(raw, S, D)
    nu = _nu(weights)
    rates = per_state_arrival_rates(nu, rule, lam)
    assert nu @ rates == pytest.approx(lam, rel=1e-10)
    assert rates.min() >= -1e-12
    assert rates.max() <= D * lam + 1e-9


@given(raw=RAW, weights=SIMPLEX_WEIGHTS, lam=st.floats(0.01, 1.5),
       dt=st.floats(0.1, 8.0))
@settings(max_examples=40, deadline=None)
def test_epoch_update_stays_on_simplex(raw, weights, lam, dt):
    rule = DecisionRule.from_raw(raw, S, D)
    nu = _nu(weights)
    nu_next, drops = epoch_update(nu, rule, lam, 1.0, dt)
    assert nu_next.min() >= 0
    assert nu_next.sum() == pytest.approx(1.0)
    assert 0.0 <= drops <= D * lam * dt + 1e-9


@given(raw=RAW, weights=SIMPLEX_WEIGHTS, lam=st.floats(0.01, 1.5))
@settings(max_examples=30, deadline=None)
def test_flow_composition_over_two_epochs(raw, weights, lam):
    """Two Δt/2 epochs with refreshed rates differ from one Δt epoch
    (information refresh matters) — but both conserve probability and
    produce non-negative drops. Guards against accidentally reusing
    stale rates across the refresh boundary."""
    rule = DecisionRule.from_raw(raw, S, D)
    nu = _nu(weights)
    nu_half, d1 = epoch_update(nu, rule, lam, 1.0, 1.0)
    nu_two, d2 = epoch_update(nu_half, rule, lam, 1.0, 1.0)
    nu_once, d_once = epoch_update(nu, rule, lam, 1.0, 2.0)
    assert nu_two.sum() == pytest.approx(1.0)
    assert nu_once.sum() == pytest.approx(1.0)
    assert d1 + d2 >= 0 and d_once >= 0


@given(
    lam=st.floats(0.0, 1.8),
    alpha=st.floats(0.3, 2.0),
    dt1=st.floats(0.1, 4.0),
    dt2=st.floats(0.1, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_propagator_semigroup_property(lam, alpha, dt1, dt2):
    """With *frozen* rates the propagator is a semigroup:
    P(dt1) @ P(dt2) = P(dt1 + dt2)."""
    p1, _ = propagate_state(np.full(S, lam), alpha, dt1, S)
    p2, _ = propagate_state(np.full(S, lam), alpha, dt2, S)
    p12, _ = propagate_state(np.full(S, lam), alpha, dt1 + dt2, S)
    assert np.allclose(p1 @ p2, p12, atol=1e-9)


@given(
    lam=st.floats(0.05, 1.7),
    dt1=st.floats(0.2, 3.0),
    dt2=st.floats(0.2, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_drops_additive_along_frozen_path(lam, dt1, dt2):
    """Expected drops accumulate additively when rates stay frozen:
    D(dt1+dt2 | z) = D(dt1 | z) + Σ_z' P(dt1)[z,z'] D(dt2 | z')."""
    rates = np.full(S, lam)
    p1, d1 = propagate_state(rates, 1.0, dt1, S)
    _, d2 = propagate_state(rates, 1.0, dt2, S)
    _, d12 = propagate_state(rates, 1.0, dt1 + dt2, S)
    assert np.allclose(d12, d1 + p1 @ d2, atol=1e-9)


@given(raw=RAW, states=arrays(np.int64, st.just(12),
                              elements=st.integers(0, S - 1)))
@settings(max_examples=40, deadline=None)
def test_infinite_client_rates_conserve_mass(raw, states):
    rule = DecisionRule.from_raw(raw, S, D)
    lam = 0.7
    rates = infinite_client_rates_batched(states[None, :], rule, np.array([lam]))
    assert rates.sum() == pytest.approx(states.size * lam, rel=1e-9)
    assert rates.min() >= -1e-12


@given(raw=RAW, states=arrays(np.int64, st.just(10),
                              elements=st.integers(0, S - 1)),
       n=st.integers(1, 10_000))
@settings(max_examples=30, deadline=None)
def test_expected_counts_sum_to_n(raw, states, n):
    rule = DecisionRule.from_raw(raw, S, D)
    expected = expected_choice_counts(states, n, rule)
    assert expected.sum() == pytest.approx(float(n), rel=1e-9)
    assert expected.min() >= -1e-12


@given(raw=RAW, lam=st.floats(0.1, 1.2), dt=st.floats(0.25, 6.0))
@settings(max_examples=15, deadline=None)
def test_stationary_fixed_points_exist_for_random_rules(raw, lam, dt):
    rule = DecisionRule.from_raw(raw, S, D)
    result = stationary_distribution(
        rule, lam, 1.0, dt, tol=1e-10, max_iterations=20_000
    )
    assert result.converged
    nu_next, _ = epoch_update(result.nu, rule, lam, 1.0, dt)
    assert np.abs(nu_next - result.nu).sum() < 1e-8


@given(raw=RAW, weights=SIMPLEX_WEIGHTS)
@settings(max_examples=40, deadline=None)
def test_rule_symmetrization_is_projection(raw, weights):
    """Symmetrize twice = symmetrize once, and the induced dynamics are
    unchanged (exchangeable sampling measure)."""
    rule = DecisionRule.from_raw(raw, S, D)
    sym = rule.symmetrized()
    assert sym.symmetrized().distance(sym) < 1e-12
    nu = _nu(weights)
    a, da = epoch_update(nu, rule, 0.8, 1.0, 1.5)
    b, db = epoch_update(nu, sym, 0.8, 1.0, 1.5)
    assert np.allclose(a, b, atol=1e-10)
    assert da == pytest.approx(db, abs=1e-10)


@given(
    weights=SIMPLEX_WEIGHTS,
    lam=st.floats(0.05, 1.5),
    dt=st.floats(0.2, 6.0),
)
@settings(max_examples=30, deadline=None)
def test_jsq_never_worse_than_join_longest(weights, lam, dt):
    """Dominance sanity: routing to the shortest sampled queue can never
    drop more (in one epoch, same ν) than routing to the longest."""
    nu = _nu(weights)
    jsq = DecisionRule.join_shortest(S, D)
    jlq = DecisionRule.join_longest(S, D)
    _, d_jsq = epoch_update(nu, jsq, lam, 1.0, dt)
    _, d_jlq = epoch_update(nu, jlq, lam, 1.0, dt)
    assert d_jsq <= d_jlq + 1e-12


# ---------------------------------------------------------------------------
# Batched-kernel determinism properties (graph backend + chunk boundaries)
# ---------------------------------------------------------------------------

BATCH_CONFIGS = st.fixed_dictionaries(
    {
        "num_queues": st.integers(4, 12),
        "clients_per_queue": st.integers(1, 8),
        "buffer_size": st.integers(2, 5),
        "delta_t": st.floats(0.5, 5.0),
        "per_packet": st.booleans(),
        "seed": st.integers(0, 2**31 - 1),
    }
)


def _batch_config(params) -> "SystemConfig":
    from repro.config import SystemConfig

    return SystemConfig(
        num_clients=params["num_queues"] * params["clients_per_queue"],
        num_queues=params["num_queues"],
        buffer_size=params["buffer_size"],
        d=2,
        delta_t=params["delta_t"],
        episode_length=10,
        monte_carlo_runs=3,
    )


@given(params=BATCH_CONFIGS, num_replicas=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_graph_full_mesh_bit_identical_to_dense(params, num_replicas):
    """BatchedGraphFiniteEnv on a full-mesh topology consumes the random
    stream exactly like BatchedFiniteSystemEnv: per-epoch drops, state
    trajectories and arrival modes are bit-identical for any config."""
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.batched_env import (
        BatchedFiniteSystemEnv,
        run_episodes_batched,
    )
    from repro.queueing.graph_env import BatchedGraphFiniteEnv
    from repro.queueing.topology import TopologySpec

    config = _batch_config(params)
    policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    dense = BatchedFiniteSystemEnv(
        config,
        num_replicas=num_replicas,
        per_packet_randomization=params["per_packet"],
        seed=params["seed"],
    )
    graph = BatchedGraphFiniteEnv(
        config,
        TopologySpec.full_mesh(config.num_queues),
        num_replicas=num_replicas,
        per_packet_randomization=params["per_packet"],
        seed=params["seed"],
    )
    a = run_episodes_batched(dense, policy, num_epochs=5, seed=params["seed"])
    b = run_episodes_batched(graph, policy, num_epochs=5, seed=params["seed"])
    assert np.array_equal(a.per_epoch_drops, b.per_epoch_drops)
    assert np.array_equal(dense.queue_states, graph.queue_states)
    assert np.array_equal(dense.lam_modes, graph.lam_modes)


@given(
    params=BATCH_CONFIGS,
    num_replicas=st.integers(1, 3),
    policy_name=st.sampled_from(["JSQ(2)", "RND"]),
    infinite_clients=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_heterogeneous_one_class_bit_identical_to_dense(
    params, num_replicas, policy_name, infinite_clients
):
    """With one server class the observed-state encoding ``z·C + c`` is
    the identity, so BatchedHeterogeneousFiniteEnv consumes the random
    stream exactly like BatchedFiniteSystemEnv (committed and per-packet
    mode) and, with ``infinite_clients=True``, like
    BatchedInfiniteClientEnv: drops, histograms, state trajectories and
    arrival modes are bit-identical."""
    from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
    from repro.queueing.batched_env import (
        BatchedFiniteSystemEnv,
        BatchedInfiniteClientEnv,
        run_episodes_batched,
    )
    from repro.queueing.heterogeneous import (
        BatchedHeterogeneousFiniteEnv,
        ServerClassSpec,
    )

    config = _batch_config(params)
    policy_cls = {"JSQ(2)": JoinShortestQueuePolicy, "RND": RandomPolicy}
    policy = policy_cls[policy_name](config.num_queue_states, config.d)
    if infinite_clients:
        dense = BatchedInfiniteClientEnv(
            config, num_replicas=num_replicas, seed=params["seed"]
        )
    else:
        dense = BatchedFiniteSystemEnv(
            config,
            num_replicas=num_replicas,
            per_packet_randomization=params["per_packet"],
            seed=params["seed"],
        )
    hetero = BatchedHeterogeneousFiniteEnv(
        config,
        ServerClassSpec((config.service_rate,), (1.0,)),
        num_replicas=num_replicas,
        infinite_clients=infinite_clients,
        per_packet_randomization=params["per_packet"],
        seed=params["seed"],
    )
    kwargs = {"num_epochs": 5, "seed": params["seed"], "record_distributions": True}
    a = run_episodes_batched(dense, policy, **kwargs)
    b = run_episodes_batched(hetero, policy, **kwargs)
    assert np.array_equal(a.per_epoch_drops, b.per_epoch_drops)
    assert np.array_equal(a.empirical_distributions, b.empirical_distributions)
    assert np.array_equal(dense.queue_states, hetero.queue_states)
    assert np.array_equal(dense.lam_modes, hetero.lam_modes)


@given(
    params=BATCH_CONFIGS,
    num_runs=st.integers(2, 5),
    boundary=st.sampled_from(["one", "runs_minus_one", "runs"]),
)
@settings(max_examples=6, deadline=None)
def test_chunk_boundary_merge_is_deterministic(params, num_runs, boundary):
    """At every chunk-boundary case (max_batch_replicas ∈ {1, E-1, E})
    the merged per-replica drops are a pure function of the seed and the
    chunk layout: re-running in-process and sharding the same layout
    over a real process pool both reproduce them bit-for-bit."""
    from repro.experiments.parallel import EvalRequest, SweepExecutor
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.graph_env import BatchedGraphFiniteEnv
    from repro.queueing.topology import TopologySpec

    config = _batch_config(params)
    chunk = {
        "one": 1,
        "runs_minus_one": max(1, num_runs - 1),
        "runs": num_runs,
    }[boundary]
    request = EvalRequest(
        config=config,
        policy=JoinShortestQueuePolicy(config.num_queue_states, config.d),
        num_runs=num_runs,
        num_epochs=3,
        seed=params["seed"],
        max_batch_replicas=chunk,
        env_cls=BatchedGraphFiniteEnv,
        env_kwargs={
            "topology": TopologySpec.random_regular(
                config.num_queues,
                degree=min(3, config.num_queues),
                seed=0,
            ),
            "per_packet_randomization": params["per_packet"],
        },
    )
    first = SweepExecutor(workers=1).run_drops([request])[0]
    second = SweepExecutor(workers=1).run_drops([request])[0]
    assert np.array_equal(first, second)
    assert first.shape == (num_runs,)
    # The pool path must agree shard-for-shard with the in-process path
    # (same chunk layout, any execution order). Note SweepExecutor
    # short-circuits single-shard requests, so only the 1 and E-1
    # boundaries actually cross process boundaries here.
    pooled = SweepExecutor(workers=2).run_drops([request])[0]
    assert np.array_equal(first, pooled)


@given(params=BATCH_CONFIGS, num_replicas=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_numba_backend_bit_identical_to_numpy(params, num_replicas):
    """The compiled epoch kernel preserves the RNG-draw contract, so a
    ``backend="numba"`` environment is bit-identical to the NumPy
    reference for any config — natively under JIT where numba is
    installed, via the stream-preserving fallback elsewhere."""
    import warnings

    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.batched_env import (
        BatchedFiniteSystemEnv,
        run_episodes_batched,
    )

    config = _batch_config(params)
    policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    results = {}
    for backend in ("numpy", "numba"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            env = BatchedFiniteSystemEnv(
                config,
                num_replicas=num_replicas,
                per_packet_randomization=params["per_packet"],
                seed=params["seed"],
                backend=backend,
            )
        results[backend] = (
            run_episodes_batched(env, policy, num_epochs=5, seed=params["seed"]),
            env.queue_states,
            env.lam_modes,
        )
    a, b = results["numpy"], results["numba"]
    assert np.array_equal(a[0].per_epoch_drops, b[0].per_epoch_drops)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


@given(params=BATCH_CONFIGS, num_clients=st.integers(1, 80))
@settings(max_examples=30, deadline=None)
def test_numba_loops_match_numpy_kernel_bitwise(params, num_clients):
    """The numba loop *algorithms* (executed as plain Python without
    numba — exact same arithmetic) replicate the reference kernel's
    choose and serve stages bit-for-bit on randomized inputs."""
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.backends import draw_uniform_queue_samples
    from repro.queueing.backends.numba_backend import NumbaEpochKernel
    from repro.queueing.backends.numpy_backend import NumpyEpochKernel
    from repro.queueing.clients import stack_rules

    config = _batch_config(params)
    reference = NumpyEpochKernel()
    candidate = NumbaEpochKernel(require_numba=False)
    rng = np.random.default_rng(params["seed"])
    e, m = 2, config.num_queues
    observed = rng.integers(0, config.num_queue_states, size=(e, m))
    policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    rule = policy.decision_rule(
        np.full(config.num_queue_states, 1.0 / config.num_queue_states),
        0,
        rng,
    )
    probs = stack_rules(rule, e)
    sampled = draw_uniform_queue_samples(rng, e, num_clients, config.d, m)
    np.testing.assert_array_equal(
        reference.committed_counts(
            observed, sampled, probs, np.random.default_rng(params["seed"])
        ),
        candidate.committed_counts(
            observed, sampled, probs, np.random.default_rng(params["seed"])
        ),
    )
    np.testing.assert_array_equal(
        reference.packet_fractions(observed, sampled, probs, num_clients),
        candidate.packet_fractions(observed, sampled, probs, num_clients),
    )
    states = rng.integers(0, config.buffer_size + 1, size=(e, m))
    arrival = rng.uniform(0.0, 4.0, size=(e, m))
    service = rng.uniform(0.3, 2.5, size=m)
    sa, da = reference.serve_epoch(
        states, arrival, service, params["delta_t"], config.buffer_size,
        np.random.default_rng(params["seed"] + 1),
    )
    sb, db = candidate.serve_epoch(
        states, arrival, service, params["delta_t"], config.buffer_size,
        np.random.default_rng(params["seed"] + 1),
    )
    np.testing.assert_array_equal(sa, sb)
    np.testing.assert_array_equal(da, db)


# ---------------------------------------------------------------------------
# Hybrid finite/mean-field fleet limits (exact subsystem + field closure)
# ---------------------------------------------------------------------------


@given(params=BATCH_CONFIGS, num_replicas=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_hybrid_all_tracked_bit_identical_to_dense(params, num_replicas):
    """With ``M_field = 0`` the hybrid fleet *is* the dense batched env:
    every draw shape and elementwise operation matches, so per-epoch
    drops, state trajectories and arrival modes are bit-identical under
    a shared seed — in both committed and per-packet modes."""
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.batched_env import (
        BatchedFiniteSystemEnv,
        run_episodes_batched,
    )
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    config = _batch_config(params)
    policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    dense = BatchedFiniteSystemEnv(
        config,
        num_replicas=num_replicas,
        per_packet_randomization=params["per_packet"],
        seed=params["seed"],
    )
    hybrid = BatchedHybridFleetEnv(
        config,
        num_replicas=num_replicas,
        num_tracked=config.num_queues,
        per_packet_randomization=params["per_packet"],
        seed=params["seed"],
    )
    a = run_episodes_batched(dense, policy, num_epochs=5, seed=params["seed"])
    b = run_episodes_batched(hybrid, policy, num_epochs=5, seed=params["seed"])
    assert np.array_equal(a.per_epoch_drops, b.per_epoch_drops)
    assert np.array_equal(dense.queue_states, hybrid.queue_states)
    assert np.array_equal(dense.lam_modes, hybrid.lam_modes)


@given(params=BATCH_CONFIGS, num_replicas=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_hybrid_all_field_reduces_to_mean_field_trajectory(
    params, num_replicas
):
    """With ``M_track = 0`` no client sampling happens and the closure
    performs the mean-field propagator's exact operations: the hybrid
    trajectory agrees with :func:`mean_field_trajectory` to <= 1e-10 for
    any config, replica count and scripted mode sequence."""
    from repro.meanfield.convergence import mean_field_trajectory
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.arrivals import ScriptedRate
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    config = _batch_config(params)
    policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    epochs = 6
    modes = np.random.default_rng(params["seed"]).integers(
        0, 2, size=epochs, dtype=np.int64
    )
    levels = (config.arrival_rate_high, config.arrival_rate_low)
    env = BatchedHybridFleetEnv(
        config,
        num_replicas=num_replicas,
        num_tracked=0,
        arrival_process=ScriptedRate(levels, modes),
        per_packet_randomization=params["per_packet"],
        seed=params["seed"],
    )
    nus, _ = mean_field_trajectory(config, policy, modes)
    hists = env.reset()
    assert np.abs(hists - nus[0]).max() <= 1e-10
    for t in range(epochs):
        hists, _, info = env.step_with_policy(policy)
        assert np.abs(hists - nus[t + 1]).max() <= 1e-10
        # All arrival mass lands in the field half.
        assert info["arrival_rates"].shape == (num_replicas, 0)
        np.testing.assert_allclose(
            info["field_arrival_mass"],
            config.num_queues * np.full(num_replicas, levels[modes[t]]),
            rtol=1e-12,
        )


@given(params=BATCH_CONFIGS, num_replicas=st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_hybrid_all_field_reduces_to_delayed_trajectory(
    params, num_replicas
):
    """The delayed hybrid fleet at ``M_track = 0`` replays the
    delay-mixture propagator exactly: agreement with
    :func:`delayed_mean_field_trajectory` to <= 1e-10."""
    from repro.meanfield.delayed import delayed_mean_field_trajectory
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.arrivals import ScriptedRate
    from repro.queueing.delays import IIDDelay
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    config = _batch_config(params)
    policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    delay_model = IIDDelay((0.5, 0.3, 0.2))
    epochs = 5
    modes = np.random.default_rng(params["seed"]).integers(
        0, 2, size=epochs, dtype=np.int64
    )
    levels = (config.arrival_rate_high, config.arrival_rate_low)
    env = BatchedHybridFleetEnv(
        config,
        num_replicas=num_replicas,
        num_tracked=0,
        delay_model=delay_model,
        arrival_process=ScriptedRate(levels, modes),
        per_packet_randomization=True,
        seed=params["seed"],
    )
    nus, _ = delayed_mean_field_trajectory(config, policy, modes, delay_model)
    hists = env.reset()
    assert np.abs(hists - nus[0]).max() <= 1e-10
    for t in range(epochs):
        hists, _, _ = env.step_with_policy(policy)
        assert np.abs(hists - nus[t + 1]).max() <= 1e-10


@given(
    params=BATCH_CONFIGS,
    num_replicas=st.integers(1, 3),
    tracked_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_hybrid_conserves_arrival_mass_under_random_splits(
    params, num_replicas, tracked_frac
):
    """For every tracked/field split the offered arrival mass is
    partitioned exactly: ``tracked rates + field mass == M * lambda``
    each epoch, so the closure never invents or loses load."""
    from repro.policies.static import JoinShortestQueuePolicy
    from repro.queueing.hybrid_env import BatchedHybridFleetEnv

    config = _batch_config(params)
    policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
    num_tracked = int(round(tracked_frac * config.num_queues))
    env = BatchedHybridFleetEnv(
        config,
        num_replicas=num_replicas,
        num_tracked=num_tracked,
        per_packet_randomization=params["per_packet"],
        seed=params["seed"],
    )
    env.reset()
    m = config.num_queues
    for _ in range(4):
        offered = m * env.current_rates
        _, _, info = env.step_with_policy(policy)
        absorbed = info["arrival_rates"].sum(axis=1) + info[
            "field_arrival_mass"
        ]
        np.testing.assert_allclose(absorbed, offered, rtol=1e-12)
        assert info["arrival_rates"].shape == (num_replicas, num_tracked)
        if num_tracked == m:
            assert np.all(info["field_arrival_mass"] == 0.0)
        # Drop accounting splits the same way.
        np.testing.assert_allclose(
            info["drops_total"],
            info["tracked_drops"] + info["field_drops"],
            rtol=1e-12,
        )


@given(
    params=BATCH_CONFIGS,
    num_runs=st.integers(2, 5),
    boundary=st.sampled_from(["one", "runs_minus_one"]),
)
@settings(max_examples=6, deadline=None)
def test_chunk_merge_determinism_with_compiled_backend(
    params, num_runs, boundary
):
    """Chunk-boundary merges through SweepExecutor stay bit-identical
    when the shards simulate under the compiled kernel: workers=1,
    workers=2 and the NumPy-kernel sweep all agree."""
    import warnings

    from repro.experiments.parallel import EvalRequest, SweepExecutor
    from repro.policies.static import JoinShortestQueuePolicy

    config = _batch_config(params)
    chunk = {"one": 1, "runs_minus_one": max(1, num_runs - 1)}[boundary]

    def request(sim_backend):
        return EvalRequest(
            config=config,
            policy=JoinShortestQueuePolicy(config.num_queue_states, config.d),
            num_runs=num_runs,
            num_epochs=3,
            seed=params["seed"],
            max_batch_replicas=chunk,
            env_kwargs={"per_packet_randomization": params["per_packet"]},
            sim_backend=sim_backend,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        compiled = SweepExecutor(workers=1).run_drops([request("numba")])[0]
        pooled = SweepExecutor(workers=2).run_drops([request("numba")])[0]
    reference = SweepExecutor(workers=1).run_drops([request("numpy")])[0]
    assert np.array_equal(compiled, reference)
    assert np.array_equal(pooled, reference)
