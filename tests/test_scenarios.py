"""Tests for the scenario registry and the batched heterogeneous env."""

import numpy as np
import pytest

from repro.config import SystemConfig, paper_system_config
from repro.queueing.arrivals import ScriptedRate
from repro.execution import ExecutionContext
from repro.queueing.heterogeneous import (
    BatchedHeterogeneousFiniteEnv,
    ServerClassSpec,
    sed_policy_suite,
    sed_rule,
)
from repro.scenarios import (
    ScenarioSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_summaries,
)

BUILTIN_NAMES = (
    "paper-baseline",
    "heterogeneous-sed",
    "bursty-mmpp",
    "overload",
    "ring-local",
    "torus-local",
    "random-regular",
    "sparse-heterogeneous",
    "diurnal-stream",
    "flash-crowd",
    "stochastic-delay",
    "outage-recovery",
    "capacity-flap",
    "link-failure-local",
)


@pytest.fixture
def spec():
    return ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))


class TestRegistry:
    def test_builtin_catalogue_registered(self):
        names = available_scenarios()
        for name in BUILTIN_NAMES:
            assert name in names

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="heterogeneous-sed"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("overload")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)
        assert register_scenario(spec, overwrite=True) is spec

    def test_spec_validation(self):
        cfg = paper_system_config(num_queues=10)
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad", description="", base_config=cfg,
                delta_ts=(), num_runs=1, build_policies=lambda c: {},
            )
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad", description="", base_config=cfg,
                delta_ts=(1.0,), num_runs=0, build_policies=lambda c: {},
            )

    def test_specs_are_frozen(self):
        spec = get_scenario("overload")
        with pytest.raises(AttributeError):
            spec.num_runs = 99

    def test_config_for_applies_delta_and_queue_rule(self):
        spec = get_scenario("paper-baseline")
        cfg = spec.config_for(7.0)
        assert cfg.delta_t == 7.0
        assert cfg.num_queues == spec.base_config.num_queues
        rescaled = spec.config_for(2.0, num_queues=12)
        assert rescaled.num_queues == 12
        assert rescaled.num_clients == 144  # default N = M² rule

    def test_summaries_cover_all_scenarios(self):
        rows = scenario_summaries()
        assert [row[0] for row in rows] == sorted(available_scenarios())
        overload_row = next(r for r in rows if r[0] == "overload")
        assert float(overload_row[1]) > 1.0  # listed ρ reflects overload


class TestRunScenario:
    def test_overload_tiny_run(self):
        result = run_scenario(
            "overload", delta_ts=(5.0,), num_queues=10, num_runs=2, seed=0
        )
        assert result.num_queues == 10
        assert result.delta_ts == (5.0,)
        assert set(result.results) == {"JSQ(2)", "RND", "THR(3)"}
        assert result.winner_at(5.0) in result.results
        assert "delta_t" in result.to_csv()
        assert "overload" in result.format_table()

    def test_bursty_mmpp_pickles_arrival_process_through_pool(self):
        kwargs = dict(
            delta_ts=(5.0,), num_queues=10, num_runs=3, seed=0
        )
        serial = run_scenario(
            "bursty-mmpp", context=ExecutionContext(workers=1), **kwargs
        )
        pooled = run_scenario(
            "bursty-mmpp", context=ExecutionContext(workers=2), **kwargs
        )
        for name in serial.results:
            assert np.array_equal(
                serial.results[name][0].drops, pooled.results[name][0].drops
            )

    def test_heterogeneous_sed_end_to_end(self):
        result = run_scenario(
            "heterogeneous-sed",
            delta_ts=(3.0, 7.0),
            num_queues=10,
            num_runs=2,
            context=ExecutionContext(workers=2),
            seed=0,
        )
        assert set(result.results) == {"SED(2)", "JSQ(2)", "RND"}
        assert all(len(series) == 2 for series in result.results.values())

    def test_same_seed_same_results(self):
        kwargs = dict(
            delta_ts=(5.0,), num_queues=10, num_runs=2, seed=42
        )
        a = run_scenario("overload", **kwargs)
        b = run_scenario("overload", **kwargs)
        for name in a.results:
            assert np.array_equal(
                a.results[name][0].drops, b.results[name][0].drops
            )

    def test_paper_baseline_uses_packaged_checkpoint(self):
        result = run_scenario(
            "paper-baseline", delta_ts=(5.0,), num_queues=10, num_runs=2,
            seed=0,
        )
        assert set(result.results) == {"MF", "JSQ(2)", "RND"}

    def test_neural_mf_policy_crosses_process_boundary(self):
        """The packaged NeuralPolicy must pickle into pool workers
        (regression: the MLP once held unpicklable activation lambdas)."""
        kwargs = dict(delta_ts=(5.0,), num_queues=10, num_runs=2, seed=0)
        serial = run_scenario(
            "paper-baseline", context=ExecutionContext(workers=1), **kwargs
        )
        pooled = run_scenario(
            "paper-baseline", context=ExecutionContext(workers=2), **kwargs
        )
        assert np.array_equal(
            serial.results["MF"][0].drops, pooled.results["MF"][0].drops
        )


class TestBatchedHeterogeneousEnv:
    def test_shapes_and_distributions(self, small_config, spec):
        env = BatchedHeterogeneousFiniteEnv(
            small_config, spec, num_replicas=3, seed=0
        )
        hists = env.reset(seed=1)
        s_obs = spec.num_observed_states(small_config.buffer_size)
        assert hists.shape == (3, s_obs)
        assert np.allclose(hists.sum(axis=1), 1.0)
        rule = sed_rule(spec, small_config.buffer_size, small_config.d)
        hists2, rewards, info = env.step(rule)
        assert hists2.shape == (3, s_obs)
        assert rewards.shape == (3,)
        assert info["drops_total"].shape == (3,)
        assert np.all(rewards <= 0)

    def test_rule_geometry_enforced(self, small_config, spec):
        from repro.meanfield.decision_rule import DecisionRule

        env = BatchedHeterogeneousFiniteEnv(
            small_config, spec, num_replicas=2, seed=0
        )
        env.reset(seed=1)
        with pytest.raises(ValueError, match="heterogeneous"):
            env.step(DecisionRule.uniform(6, 2))  # homogeneous geometry

    def test_infinite_clients_conserve_arrival_mass(self, small_config, spec):
        scripted = ScriptedRate([0.9, 0.6], [0] * 10)
        env = BatchedHeterogeneousFiniteEnv(
            small_config, spec, num_replicas=2,
            arrival_process=scripted, infinite_clients=True, seed=0,
        )
        env.reset(seed=1)
        rule = sed_rule(spec, small_config.buffer_size, small_config.d)
        _, _, info = env.step(rule)
        # Σ_j λ_j = M·λ_t per replica, with λ_t = 0.9 scripted.
        assert np.allclose(
            info["arrival_rates"].sum(axis=1),
            small_config.num_queues * 0.9,
        )

    def test_per_packet_randomization_mode(self, small_config, spec):
        scripted = ScriptedRate([0.9, 0.6], [0] * 10)
        env = BatchedHeterogeneousFiniteEnv(
            small_config, spec, num_replicas=2,
            arrival_process=scripted,
            per_packet_randomization=True, seed=0,
        )
        env.reset(seed=1)
        rule = sed_rule(spec, small_config.buffer_size, small_config.d)
        _, _, info = env.step(rule)
        # Per-packet thinning conserves total arrival mass exactly per
        # draw (the routing fractions sum to one over the queues).
        assert np.allclose(
            info["arrival_rates"].sum(axis=1),
            small_config.num_queues * 0.9,
        )

    def test_sed_policy_suite_names(self, spec):
        suite = sed_policy_suite(spec, buffer_size=5, d=2)
        assert list(suite) == ["SED(2)", "JSQ(2)", "RND"]
        for policy in suite.values():
            assert policy.is_stationary()

    def test_record_distributions_uses_observed_width(self, small_config, spec):
        """Regression: recorded distributions follow the env's observed
        state space (Z x C), not the config's Z."""
        from repro.queueing.batched_env import run_episodes_batched

        env = BatchedHeterogeneousFiniteEnv(
            small_config, spec, num_replicas=2, seed=0
        )
        suite = sed_policy_suite(spec, small_config.buffer_size, small_config.d)
        result = run_episodes_batched(
            env, suite["SED(2)"], num_epochs=3, seed=1,
            record_distributions=True,
        )
        s_obs = spec.num_observed_states(small_config.buffer_size)
        assert result.empirical_distributions.shape == (2, 4, s_obs)
        assert np.allclose(result.empirical_distributions.sum(axis=2), 1.0)


class TestGraphScenarios:
    def test_ring_local_tiny_run(self):
        result = run_scenario(
            "ring-local", delta_ts=(5.0,), num_queues=10, num_runs=2, seed=0
        )
        assert result.num_queues == 10
        assert set(result.results) == {"JSQ(2)", "RND", "THR(3)"}
        for series in result.results.values():
            assert len(series) == 1
            assert series[0].drops.shape == (2,)

    def test_random_regular_sharded_matches_serial(self):
        kwargs = dict(
            delta_ts=(2.0,), num_queues=10, num_runs=3, seed=4
        )
        serial = run_scenario(
            "random-regular", context=ExecutionContext(workers=1), **kwargs
        )
        sharded = run_scenario(
            "random-regular", context=ExecutionContext(workers=2), **kwargs
        )
        for name in serial.results:
            assert np.array_equal(
                serial.results[name][0].drops,
                sharded.results[name][0].drops,
            )

    def test_sparse_heterogeneous_service_rates(self):
        """The env kwargs carry per-queue rates from the class spec."""
        spec = get_scenario("sparse-heterogeneous")
        config = spec.config_for(5.0, num_queues=10)
        kwargs = spec.env_kwargs_for(config)
        rates = kwargs["service_rates"]
        assert sorted(set(rates.tolist())) == [0.5, 2.0]
        assert kwargs["topology"].num_queues == 10

    def test_torus_local_respects_queue_override(self):
        """Non-square --queues overrides still factor into a torus."""
        spec = get_scenario("torus-local")
        config = spec.config_for(5.0, num_queues=12)
        topology = spec.env_kwargs_for(config)["topology"]
        assert topology.num_queues == 12
        assert topology.kind == "torus"

    @pytest.mark.parametrize("name", ["ring-local", "torus-local"])
    @pytest.mark.parametrize("m", [2, 4, 7, 10, 13, 22])
    def test_graph_scenarios_survive_awkward_queue_overrides(self, name, m):
        """Radii clamp to the overridden M: primes, narrow factorizations
        and tiny systems build valid, non-degenerate-where-possible
        topologies instead of raising (regression for the bare
        ValueError traceback on e.g. `torus-local --queues 10`)."""
        spec = get_scenario(name)
        config = spec.config_for(5.0, num_queues=m)
        topology = spec.env_kwargs_for(config)["topology"]
        assert topology.num_queues == m
        assert (topology.in_degrees() > 0).all()
        if name == "torus-local" and m == 10:
            # 2 x 5 grid: long-axis neighborhood survives the clamp.
            assert topology.degree == 3


class TestScenarioConfigHelpers:
    def test_offered_load_paper_config(self):
        cfg = paper_system_config()
        # π_h = 0.5/0.7; E[λ] = (5·0.9 + 2·0.6)/7 ≈ 0.8143
        assert cfg.offered_load == pytest.approx(5.7 / 7.0)

    def test_offered_load_degenerate_chain(self):
        cfg = SystemConfig(
            num_clients=10, num_queues=5,
            p_high_to_low=0.0, p_low_to_high=0.0,
        )
        assert cfg.stationary_arrival_rate == pytest.approx(
            0.5 * (cfg.arrival_rate_high + cfg.arrival_rate_low)
        )

    def test_overload_scenario_is_overloaded(self):
        spec = get_scenario("overload")
        assert spec.base_config.offered_load > 1.0


class TestStreamingScenarioSweeps:
    """The streaming-native scenarios also run as finite sweeps (the
    registry contract: every name works with both `scenario` and
    `stream`)."""

    @pytest.mark.parametrize(
        "name", ["diurnal-stream", "flash-crowd", "stochastic-delay"]
    )
    def test_tiny_sweep_runs(self, name):
        result = run_scenario(
            name, delta_ts=(2.0,), num_queues=8, num_runs=2, seed=0
        )
        assert result.delta_ts == (2.0,)
        for series in result.results.values():
            assert len(series) == 1
            assert np.isfinite(series[0].mean_drops)

    def test_stochastic_delay_worker_invariance(self):
        kwargs = dict(delta_ts=(2.0,), num_queues=8, num_runs=4, seed=1)
        serial = run_scenario(
            "stochastic-delay", context=ExecutionContext(workers=1), **kwargs
        )
        pooled = run_scenario(
            "stochastic-delay", context=ExecutionContext(workers=2), **kwargs
        )
        for policy in serial.results:
            assert np.array_equal(
                serial.results[policy][0].drops,
                pooled.results[policy][0].drops,
            )

    def test_streaming_scenarios_store_round_trip(self, tmp_path):
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        kwargs = dict(delta_ts=(2.0,), num_queues=8, num_runs=2, seed=0)
        cold = run_scenario("diurnal-stream", **kwargs)
        fresh = run_scenario(
            "diurnal-stream", context=ExecutionContext(store=store), **kwargs
        )
        assert store.stats.writes > 0
        warm = run_scenario(
            "diurnal-stream", context=ExecutionContext(store=store), **kwargs
        )
        assert store.stats.hits >= store.stats.writes
        for policy in cold.results:
            assert np.array_equal(
                cold.results[policy][0].drops,
                fresh.results[policy][0].drops,
            )
            assert np.array_equal(
                cold.results[policy][0].drops,
                warm.results[policy][0].drops,
            )


class TestFlashCrowdTiming:
    """Regression: the flash crowd is anchored in model time, so every
    Δt cell of a sweep (eval horizon ≈ 500/Δt epochs) sees the spike."""

    @pytest.mark.parametrize("delta_t", [1.0, 3.0, 5.0, 7.0, 10.0])
    def test_spike_inside_every_sweep_cell(self, delta_t):
        from repro.scenarios.builtin import (
            FLASH_PEAK_RATE,
            flash_crowd_arrival_process,
        )

        spec = get_scenario("flash-crowd")
        config = spec.config_for(delta_t)
        horizon = config.resolved_eval_length()
        process = spec.env_kwargs_for(config)["arrival_process"]
        rates = [process.rate_at(t) for t in range(horizon)]
        assert max(rates) == pytest.approx(FLASH_PEAK_RATE)
        # Peak lands at model time ~110 for every delta_t.
        peak_time = int(np.argmax(rates)) * delta_t
        assert 90.0 <= peak_time <= 130.0
        assert flash_crowd_arrival_process(delta_t).rate_at(0) == 0.6
