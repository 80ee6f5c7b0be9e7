"""Tests for the degradation-event layer (`repro.queueing.chaos`).

Pins the tentpole's two contracts:

* **Mass conservation** — every job removed by an event is either
  relocated or accounted: ``drops_total == drops_kernel + chaos_drops``
  holds epoch by epoch on the dense *and* graph backends
  (property-tested over randomized schedules), and :func:`water_fill`
  conserves mass exactly up to its returned overflow.
* **Determinism** — applying a schedule consumes no random draws: an
  empty schedule is bit-identical to no schedule at all, resets are
  reproducible, both kernel sets agree under a non-empty schedule, and
  chaos sweeps stay worker-count invariant and store-cacheable.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.execution import ExecutionContext
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    run_episodes_batched,
)
from repro.queueing.chaos import (
    CHAOS_SPEC_GRAMMAR,
    CapacityFlap,
    CapacityProfile,
    DegradationSchedule,
    LinkFailure,
    ServerOutage,
    TopologyRewire,
    parse_chaos_spec,
    reroute_away,
    water_fill,
)
from repro.queueing.graph_env import BatchedGraphFiniteEnv
from repro.queueing.topology import TopologySpec
from repro.scenarios import run_scenario

SEED = 20260731

CONFIG = SystemConfig(
    num_clients=80,
    num_queues=8,
    buffer_size=5,
    d=2,
    delta_t=1.5,
    episode_length=20,
    monte_carlo_runs=2,
)


def _jsq():
    return JoinShortestQueuePolicy(CONFIG.num_queue_states, CONFIG.d)


def _dense(chaos=None, replicas=2, seed=SEED, **kwargs):
    kwargs.setdefault("per_packet_randomization", True)
    return BatchedFiniteSystemEnv(
        CONFIG, num_replicas=replicas, seed=seed, chaos=chaos, **kwargs
    )


def _graph(chaos=None, replicas=2, seed=SEED):
    return BatchedGraphFiniteEnv(
        CONFIG,
        TopologySpec.ring(CONFIG.num_queues, radius=2),
        num_replicas=replicas,
        per_packet_randomization=True,
        seed=seed,
        chaos=chaos,
    )


def _trace(env, epochs=10, seed=SEED):
    result = run_episodes_batched(
        env, _jsq(), num_epochs=epochs, seed=seed, record_distributions=True
    )
    return {
        "queue_states": env.queue_states.tolist(),
        "lam_modes": env.lam_modes.tolist(),
        "per_epoch_drops": result.per_epoch_drops.tolist(),
        "distributions": result.empirical_distributions.tolist(),
    }


class TestWaterFill:
    def test_fills_lowest_first_and_conserves(self):
        states = np.array([[0, 3, 5, 2], [1, 1, 1, 1]], dtype=np.int64)
        before = states.sum(axis=1)
        jobs = np.array([7, 4])
        overflow = water_fill(states, jobs, buffer_size=5)
        np.testing.assert_array_equal(
            states.sum(axis=1), before + jobs - overflow
        )
        assert not overflow.any()
        np.testing.assert_array_equal(states[0], [4, 4, 5, 4])
        np.testing.assert_array_equal(states[1], [2, 2, 2, 2])

    def test_eligible_mask_and_overflow_exact(self):
        states = np.array([[4, 0, 4, 0]], dtype=np.int64)
        eligible = np.array([True, False, True, False])
        overflow = water_fill(states, np.array([9]), 5, eligible=eligible)
        # Only the two eligible buffers (one slot each) can absorb.
        np.testing.assert_array_equal(states[0], [5, 0, 5, 0])
        np.testing.assert_array_equal(overflow, [7.0])

    def test_no_eligible_queue_overflows_everything(self):
        states = np.zeros((3, 4), dtype=np.int64)
        overflow = water_fill(
            states, np.array([2, 0, 5]), 5, eligible=np.zeros(4, dtype=bool)
        )
        np.testing.assert_array_equal(overflow, [2.0, 0.0, 5.0])
        assert states.sum() == 0


class TestRerouteAway:
    def _ring(self, m=10, radius=2):
        return TopologySpec.ring(m, radius=radius)

    def test_failed_queues_vanish_and_rows_stay_valid(self):
        topo = self._ring()
        failed = np.array([2, 3])
        rerouted = reroute_away(topo, failed)
        assert rerouted.kind == "ring-rerouted"
        assert rerouted.degree == topo.degree
        for row in rerouted.neighbors:
            assert not set(row.tolist()) & {2, 3}
            assert len(set(row.tolist())) == row.size  # duplicate-free

    def test_deterministic(self):
        topo = self._ring()
        a = reroute_away(topo, np.array([1, 7]))
        b = reroute_away(topo, np.array([7, 1]))
        np.testing.assert_array_equal(a.neighbors, b.neighbors)

    def test_unaffected_rows_untouched(self):
        topo = self._ring()
        rerouted = reroute_away(topo, np.array([0]))
        untouched = [
            i
            for i in range(topo.num_queues)
            if 0 not in set(topo.neighbors[i].tolist())
        ]
        assert untouched  # radius-2 ring: most rows don't see queue 0
        for i in untouched:
            np.testing.assert_array_equal(
                rerouted.neighbors[i], topo.neighbors[i]
            )

    def test_guards(self):
        topo = self._ring(m=6, radius=2)
        with pytest.raises(ValueError, match=r"\[0, 5\]"):
            reroute_away(topo, np.array([6]))
        # degree 5 (self + 2 each side), killing 2 of 6 leaves only 4.
        with pytest.raises(ValueError, match="distinct neighbors"):
            reroute_away(topo, np.array([0, 1]))
        assert reroute_away(topo, np.array([], dtype=int)) is topo


class TestEventValidation:
    def test_selection_rules(self):
        with pytest.raises(ValueError, match="queues or fraction"):
            ServerOutage(epoch=3)
        with pytest.raises(ValueError, match="not both"):
            ServerOutage(epoch=3, queues=(1,), fraction=0.5)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ServerOutage(epoch=3, fraction=1.5)
        with pytest.raises(ValueError, match="must be unique"):
            ServerOutage(epoch=3, queues=(1, 1))
        with pytest.raises(ValueError, match="after the outage epoch"):
            ServerOutage(epoch=5, fraction=0.1, restart_epoch=5)
        with pytest.raises(ValueError, match="> 0"):
            CapacityFlap(epoch=0, factor=0.0)
        with pytest.raises(ValueError, match="after epoch"):
            CapacityFlap(epoch=4, factor=0.5, end_epoch=2)
        with pytest.raises(ValueError, match="unknown degradation event"):
            DegradationSchedule(("not-an-event",))

    def test_out_of_range_queue_rejected_at_validate(self):
        schedule = DegradationSchedule(
            (ServerOutage(epoch=2, queues=(9,)),)
        )
        with pytest.raises(ValueError, match="fleet has 8"):
            schedule.validate_for(num_queues=8)

    def test_whole_fleet_outage_rejected(self):
        schedule = DegradationSchedule(
            (ServerOutage(epoch=2, fraction=1.0),)
        )
        with pytest.raises(ValueError, match="whole fleet"):
            schedule.validate_for(num_queues=8)
        # ...but a restart of half the fleet before the other half fails
        # keeps someone active at all times.
        ok = DegradationSchedule(
            (
                ServerOutage(epoch=2, queues=(0, 1), restart_epoch=4),
                ServerOutage(epoch=5, queues=(2, 3)),
            )
        )
        ok.validate_for(num_queues=4)

    def test_topology_events_need_the_graph_env(self):
        schedule = DegradationSchedule(
            (LinkFailure(epoch=2, fraction=0.2),)
        )
        with pytest.raises(ValueError, match="graph"):
            schedule.validate_for(num_queues=8, supports_topology=False)
        schedule.validate_for(num_queues=8, supports_topology=True)
        with pytest.raises(ValueError, match="graph"):
            _dense(chaos=schedule).reset(SEED)

    def test_rewire_must_match_fleet_size(self):
        schedule = DegradationSchedule(
            (TopologyRewire(epoch=2, topology=TopologySpec.ring(6)),)
        )
        with pytest.raises(ValueError, match="fleet has 8"):
            schedule.validate_for(num_queues=8, supports_topology=True)

    def test_env_rejects_bad_schedules_at_construction(self):
        with pytest.raises(ValueError, match="DegradationSchedule"):
            _dense(chaos="outage@3:frac=0.1")
        with pytest.raises(ValueError, match="fleet has 8"):
            _dense(
                chaos=DegradationSchedule(
                    (ServerOutage(epoch=1, queues=(20,)),)
                )
            )

    def test_capacity_profile_needs_rate_at(self):
        with pytest.raises(ValueError, match="rate_at"):
            CapacityProfile(profile=object())


def _composite_schedule(fraction, preserve, factor, restart):
    events = [
        ServerOutage(
            epoch=2,
            fraction=fraction,
            restart_epoch=6 if restart else None,
            preserve_jobs=preserve,
        ),
        CapacityFlap(epoch=1, factor=factor, fraction=0.5, end_epoch=8),
    ]
    return DegradationSchedule(tuple(events))


class TestMassConservation:
    """The property gate: drops_total == drops_kernel + chaos_drops,
    states stay in [0, B], inactive queues stay empty, restarts re-admit.
    """

    def _check_run(self, env, epochs=9):
        policy = _jsq()
        env.reset(SEED)
        saw_outage = False
        for _ in range(epochs):
            _, _, info = env.step_with_policy(policy)
            np.testing.assert_allclose(
                info["drops_total"],
                info["drops_kernel"] + info["chaos_drops"],
                rtol=0,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                info["chaos_drops"],
                info["chaos_event_drops"] + info["chaos_blackholed"],
                rtol=0,
                atol=1e-12,
            )
            assert (info["chaos_drops"] >= 0).all()
            assert env.queue_states.min() >= 0
            assert env.queue_states.max() <= CONFIG.buffer_size
            active = info["chaos_active"]
            if not active.all():
                saw_outage = True
                assert env.queue_states[:, ~active].sum() == 0
        return saw_outage

    @given(
        fraction=st.floats(0.05, 0.6),
        preserve=st.booleans(),
        factor=st.floats(0.2, 2.0),
        restart=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_dense(self, fraction, preserve, factor, restart):
        schedule = _composite_schedule(fraction, preserve, factor, restart)
        env = _dense(chaos=schedule)
        assert self._check_run(env)
        if restart:
            # Epochs 6..9 run with the fleet whole again.
            assert env._chaos_state.active.all()

    @given(
        fraction=st.floats(0.05, 0.4),
        preserve=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_graph_with_link_failures(self, fraction, preserve):
        events = _composite_schedule(fraction, preserve, 0.7, True).events
        schedule = DegradationSchedule(
            events + (LinkFailure(epoch=3, fraction=0.2, restore_epoch=7),)
        )
        env = _graph(chaos=schedule)
        assert self._check_run(env)
        # Links restored: the pristine ring is back, bit for bit.
        assert env.topology.kind == "ring"

    def test_queue_loss_drops_exactly_the_standing_jobs(self):
        schedule = DegradationSchedule(
            (ServerOutage(epoch=4, queues=(0, 1)),)
        )
        env = _dense(chaos=schedule)
        policy = _jsq()
        env.reset(SEED)
        for _ in range(4):  # epochs 0..3; the next step runs epoch 4
            env.step_with_policy(policy)
        standing = env.queue_states[:, :2].sum(axis=1).astype(float)
        _, _, info = env.step_with_policy(policy)
        np.testing.assert_array_equal(info["chaos_event_drops"], standing)
        assert env.queue_states[:, :2].sum() == 0

    def test_preservation_relocates_into_survivors(self):
        schedule = DegradationSchedule(
            (ServerOutage(epoch=4, queues=(0, 1), preserve_jobs=True),)
        )
        env = _dense(chaos=schedule)
        policy = _jsq()
        env.reset(SEED)
        for _ in range(4):
            env.step_with_policy(policy)
        total_before = env.queue_states.sum(axis=1).astype(float)
        _, _, info = env.step_with_policy(policy)
        # Conservation through the event itself: the survivors now hold
        # everything the failed queues held, minus water-fill overflow,
        # minus what the kernel served/dropped this epoch, plus arrivals.
        assert (
            info["chaos_event_drops"] <= total_before
        ).all()  # can't lose more than existed
        assert env.queue_states[:, :2].sum() == 0

    def test_blackholed_mass_matches_masked_rates(self):
        schedule = DegradationSchedule(
            (ServerOutage(epoch=2, queues=(3,)),)
        )
        env = _dense(chaos=schedule)
        policy = _jsq()
        env.reset(SEED)
        env.step_with_policy(policy)  # epoch 0
        env.step_with_policy(policy)  # epoch 1
        _, _, info = env.step_with_policy(policy)  # epoch 2: the outage
        np.testing.assert_allclose(
            info["chaos_blackholed"],
            info["arrival_rates"][:, 3] * CONFIG.delta_t,
        )
        # arrival_rates stays the full pre-mask field.
        assert (info["arrival_rates"][:, 3] > 0).any()


class TestCapacityModulation:
    def test_flap_window_and_exact_restoration(self):
        schedule = DegradationSchedule(
            (CapacityFlap(epoch=2, factor=0.25, fraction=0.5, end_epoch=5),)
        )
        env = _dense(chaos=schedule)
        policy = _jsq()
        env.reset(SEED)
        base = env.service_rates.copy()
        k = 4  # round(0.5 * 8)
        env.step_with_policy(policy)  # epoch 0
        np.testing.assert_array_equal(env.service_rates, base)
        env.step_with_policy(policy)  # epoch 1
        _, _, info = env.step_with_policy(policy)  # epoch 2: flap starts
        assert info.get("chaos_rates_changed") is True
        np.testing.assert_array_equal(env.service_rates[:k], base[:k] * 0.25)
        np.testing.assert_array_equal(env.service_rates[k:], base[k:])
        env.step_with_policy(policy)  # 3
        env.step_with_policy(policy)  # 4
        _, _, info = env.step_with_policy(policy)  # epoch 5: flap ends
        assert info.get("chaos_rates_changed") is True
        # Rebuilt from the pristine base: restoration is exact, not
        # approximately-inverse.
        np.testing.assert_array_equal(env.service_rates, base)

    def test_overlapping_flaps_compose_multiplicatively(self):
        schedule = DegradationSchedule(
            (
                CapacityFlap(epoch=1, factor=0.5, queues=(0,)),
                CapacityFlap(epoch=1, factor=0.5, queues=(0, 1)),
            )
        )
        env = _dense(chaos=schedule)
        env.reset(SEED)
        base = env.service_rates.copy()
        policy = _jsq()
        env.step_with_policy(policy)
        env.step_with_policy(policy)
        assert env.service_rates[0] == base[0] * 0.25
        assert env.service_rates[1] == base[1] * 0.5

    def test_profile_replays_as_multiplier(self):
        from repro.queueing.workloads import TraceReplayRate

        profile = TraceReplayRate((2.0, 1.0, 0.5), loop=False)
        schedule = DegradationSchedule(
            (CapacityProfile(profile=profile, epoch=1),)
        )
        env = _dense(chaos=schedule)
        env.reset(SEED)
        base = env.service_rates.copy()
        policy = _jsq()
        env.step_with_policy(policy)  # epoch 0: untouched
        np.testing.assert_array_equal(env.service_rates, base)
        env.step_with_policy(policy)  # epoch 1: multiplier rate_at(0)
        np.testing.assert_array_equal(
            env.service_rates, base * profile.rate_at(0)
        )


class TestDeterminism:
    def test_empty_schedule_bit_identical_to_none(self):
        baseline = _trace(_dense())
        empty = _trace(_dense(chaos=DegradationSchedule()))
        assert baseline == empty

    def test_reset_reproducibility(self):
        schedule = _composite_schedule(0.25, True, 0.5, True)
        env = _dense(chaos=schedule)
        first = _trace(env)
        second = _trace(env)  # run_episodes_batched resets with the seed
        assert first == second

    def test_info_surface_absent_without_chaos(self):
        env = _dense()
        env.reset(SEED)
        _, _, info = env.step_with_policy(_jsq())
        assert "chaos_drops" not in info
        assert "drops_total" in info

    def test_numpy_numba_kernels_agree_under_chaos(self):
        """The mask layer preserves draw shapes, so a contract-keeping
        compiled kernel must stay bit-identical through a non-empty
        schedule (on hosts without numba this pins the fallback; the CI
        numba leg runs it under real JIT)."""
        schedule = _composite_schedule(0.25, False, 0.5, True)
        reference = _trace(_dense(chaos=schedule, backend="numpy"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            candidate = _trace(_dense(chaos=schedule, backend="numba"))
        assert reference == candidate

    def test_graph_reset_restores_pristine_topology(self):
        schedule = DegradationSchedule(
            (LinkFailure(epoch=2, fraction=0.2),)  # never restored
        )
        env = _graph(chaos=schedule)
        _trace(env, epochs=5)
        assert env.topology.kind.endswith("-rerouted")
        env.reset(SEED)
        assert env.topology.kind == "ring"


class TestSweepIntegration:
    _KW = dict(delta_ts=(2.0,), num_queues=10, num_runs=2, seed=SEED)

    def test_outage_recovery_worker_count_invariant(self):
        serial = run_scenario(
            "outage-recovery", context=ExecutionContext(workers=1), **self._KW
        )
        pooled = run_scenario(
            "outage-recovery", context=ExecutionContext(workers=2), **self._KW
        )
        for name in serial.results:
            np.testing.assert_array_equal(
                serial.mean_series(name), pooled.mean_series(name)
            )

    def test_chaos_sweep_store_round_trip(self, tmp_path):
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        fresh = run_scenario(
            "capacity-flap", context=ExecutionContext(store=store), **self._KW
        )
        assert store.stats.writes > 0
        warm = run_scenario(
            "capacity-flap", context=ExecutionContext(store=store), **self._KW
        )
        assert warm.results.keys() == fresh.results.keys()
        for name in fresh.results:
            np.testing.assert_array_equal(
                fresh.mean_series(name), warm.mean_series(name)
            )

    def test_chaos_override_keys_differ_from_clean_run(self, tmp_path):
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        run_scenario("overload", context=ExecutionContext(store=store), **self._KW)
        writes = store.stats.writes
        assert writes > 0
        schedule = DegradationSchedule(
            (ServerOutage(epoch=3, fraction=0.2),)
        )
        chaos = run_scenario(
            "overload",
            context=ExecutionContext(store=store),
            chaos=schedule,
            **self._KW,
        )
        # The schedule fingerprints into the shard keys: nothing reused.
        assert store.stats.writes == 2 * writes
        assert all(
            np.isfinite(chaos.mean_series(name)).all()
            for name in chaos.results
        )

    def test_link_failure_scenario_runs_on_graph(self):
        result = run_scenario(
            "link-failure-local", context=ExecutionContext(workers=1), **self._KW
        )
        assert result.num_queues == 10
        for series in result.results.values():
            assert len(series) == 1

    def test_chaos_scenarios_registered_with_tags(self):
        from repro.scenarios.registry import get_scenario

        for name in ("outage-recovery", "capacity-flap"):
            assert "chaos" in get_scenario(name).tags
        spec = get_scenario("link-failure-local")
        assert "chaos" in spec.tags and "topology" in spec.tags


class TestStreamIntegration:
    def test_run_stream_scenario_with_chaos_override(self):
        from repro.serving import run_stream_scenario

        schedule = DegradationSchedule(
            (CapacityFlap(epoch=3, factor=0.5, end_epoch=8),)
        )
        result = run_stream_scenario(
            "diurnal-stream",
            horizon=24.0,
            window=4,
            delta_t=2.0,
            num_queues=10,
            num_replicas=2,
            seed=SEED,
            chaos=schedule,
        )
        assert np.isfinite(result.window_rows).all()
        assert result.summaries.shape[0] == 2

    def test_stream_rejects_topology_chaos_on_dense_scenario(self):
        from repro.serving import run_stream_scenario

        schedule = DegradationSchedule(
            (LinkFailure(epoch=2, fraction=0.2),)
        )
        with pytest.raises(ValueError, match="graph"):
            run_stream_scenario(
                "diurnal-stream",
                horizon=24.0,
                num_queues=10,
                num_replicas=2,
                seed=SEED,
                chaos=schedule,
            )


class TestParseChaosSpec:
    def test_round_trip(self):
        schedule = parse_chaos_spec(
            "outage@40-80:queues=0..2+9,mode=preserve;"
            "flap@20-60:factor=0.5,frac=0.5;"
            "links@30:frac=0.1"
        )
        outage, flap, links = schedule.events
        assert outage == ServerOutage(
            epoch=40,
            queues=(0, 1, 2, 9),
            restart_epoch=80,
            preserve_jobs=True,
        )
        assert flap == CapacityFlap(
            epoch=20, factor=0.5, fraction=0.5, end_epoch=60
        )
        assert links == LinkFailure(epoch=30, fraction=0.1)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("outage:frac=0.1", "@EPOCH"),
            ("outage@x:frac=0.1", "integers"),
            ("meteor@4:frac=0.1", "unknown event kind"),
            ("outage@4:queues=1,frac=0.1", "not both"),
            ("outage@4:frac=0.1,mode=explode", "loss"),
            ("outage@4", "queues=... or frac"),
            ("flap@4:frac=0.1", "factor"),
            ("flap@4:factor=half", "number"),
            ("outage@4:queues=5..2", "empty queue range"),
            ("outage@4:frac=0.1,shade=dark", "unknown option"),
            ("  ;  ", "empty chaos spec"),
        ],
    )
    def test_malformed_specs_raise(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_chaos_spec(spec)

    def test_grammar_is_advertised(self):
        with pytest.raises(ValueError) as exc:
            parse_chaos_spec("meteor@4")
        assert CHAOS_SPEC_GRAMMAR.splitlines()[0] in str(exc.value)
