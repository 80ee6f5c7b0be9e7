"""Non-stationary workload generators (repro.queueing.workloads)."""

import numpy as np
import pytest

from repro.config import paper_system_config
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.batched_env import BatchedFiniteSystemEnv
from repro.queueing.workloads import (
    DiurnalRate,
    FlashCrowdRate,
    TraceReplayRate,
)


class TestDiurnalRate:
    def test_periodicity_and_envelope(self):
        d = DiurnalRate(mean=0.75, amplitude=0.2, period=48)
        rates = np.asarray([d.rate_at(t) for t in range(96)])
        assert np.allclose(rates[:48], rates[48:])
        assert rates.min() >= 0.55 - 1e-12
        assert rates.max() <= 0.95 + 1e-12
        assert rates.min() > 0

    def test_time_average_is_mean(self):
        d = DiurnalRate(mean=0.8, amplitude=0.15, period=32)
        assert d.stationary_mean_rate() == pytest.approx(0.8)

    def test_peak_level_bounds_profile(self):
        d = DiurnalRate(mean=0.7, amplitude=0.2, period=20)
        assert d.levels.max() <= 0.9 + 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean=0.0, amplitude=0.1, period=10),
            dict(mean=0.5, amplitude=0.5, period=10),  # trough hits 0
            dict(mean=0.5, amplitude=-0.1, period=10),
            dict(mean=0.5, amplitude=0.1, period=1),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DiurnalRate(**kwargs)

    def test_phase_shifts_profile(self):
        base = DiurnalRate(mean=0.75, amplitude=0.2, period=40)
        shifted = DiurnalRate(mean=0.75, amplitude=0.2, period=40, phase=10.0)
        assert shifted.rate_at(0) == pytest.approx(base.rate_at(10))


class TestFlashCrowdRate:
    def test_profile_shape(self):
        f = FlashCrowdRate(
            base_rate=0.6, peak_rate=1.5, spike_epoch=10, ramp_epochs=5
        )
        assert f.rate_at(0) == 0.6
        assert f.rate_at(10) == 0.6  # ramp starts after the spike epoch
        assert f.rate_at(15) == pytest.approx(1.5)
        # Geometric decay: strictly decreasing back toward baseline.
        tail = [f.rate_at(t) for t in range(15, 60)]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert f.rate_at(10_000_000) == 0.6  # O(profile) memory, any horizon

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FlashCrowdRate(base_rate=0.6, peak_rate=0.5, spike_epoch=5)
        with pytest.raises(ValueError):
            FlashCrowdRate(
                base_rate=0.6, peak_rate=1.5, spike_epoch=5, decay=1.0
            )

    def test_long_run_mean_is_baseline(self):
        f = FlashCrowdRate(base_rate=0.6, peak_rate=1.2, spike_epoch=2)
        assert f.stationary_mean_rate() == pytest.approx(0.6)


class TestTraceReplayRate:
    def test_loop_and_clamp(self):
        looped = TraceReplayRate([0.5, 0.7, 0.9], loop=True)
        held = TraceReplayRate([0.5, 0.7, 0.9], loop=False)
        assert looped.rate_at(4) == 0.7
        assert held.rate_at(4) == 0.9

    def test_from_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# rates\nrate,label\n0.5,a\n0.75,b\n1.0,c\n")
        trace = TraceReplayRate.from_csv(path)
        assert np.allclose(
            [trace.rate_at(t) for t in range(3)], [0.5, 0.75, 1.0]
        )

    def test_from_csv_header_after_many_comments(self, tmp_path):
        """Regression: the header row is identified by data position,
        not raw line number — leading comments must not break it."""
        path = tmp_path / "trace.csv"
        path.write_text("# a\n# b\n\n# c\nrate\n0.5\n0.75\n")
        trace = TraceReplayRate.from_csv(path)
        assert np.allclose([trace.rate_at(0), trace.rate_at(1)], [0.5, 0.75])

    def test_from_csv_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        with pytest.raises(ValueError):
            TraceReplayRate.from_csv(empty)
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5\noops\n")
        with pytest.raises(ValueError):
            TraceReplayRate.from_csv(bad)

    def test_from_npz_roundtrip(self, tmp_path):
        path = tmp_path / "trace.npz"
        rates = np.asarray([0.4, 0.8, 1.1, 0.9])
        np.savez(path, rates=rates)
        trace = TraceReplayRate.from_npz(path)
        assert np.allclose([trace.rate_at(t) for t in range(4)], rates)
        with pytest.raises(ValueError):
            TraceReplayRate.from_npz(path, key="missing")

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            TraceReplayRate([])


class TestProfileSemantics:
    def test_replica_gets_fresh_cursor(self):
        d = DiurnalRate(mean=0.75, amplitude=0.2, period=10)
        d.sample_initial_mode()
        for _ in range(4):
            d.step_mode(0)
        clone = d.replica()
        assert clone.sample_initial_mode() == d.mode_at(0)
        assert d._cursor == 4  # original cursor untouched by the clone

    def test_batched_modes_shared_across_replicas(self):
        d = DiurnalRate(mean=0.75, amplitude=0.2, period=10)
        modes = d.sample_initial_modes_batch(5)
        assert np.all(modes == modes[0])
        stepped = d.step_modes_batch(modes)
        assert np.all(stepped == d.mode_at(1))

    def test_simulate_modes_is_deterministic(self):
        d = DiurnalRate(mean=0.75, amplitude=0.2, period=7)
        a = d.simulate_modes(20)
        b = d.simulate_modes(20)
        assert np.array_equal(a, b)
        assert np.array_equal(a[:7], np.arange(7))

    def test_drives_batched_environment(self):
        config = paper_system_config(num_queues=10, num_clients=50)
        env = BatchedFiniteSystemEnv(
            config,
            num_replicas=3,
            arrival_process=DiurnalRate(0.75, 0.2, period=8),
            per_packet_randomization=True,
            seed=0,
        )
        policy = JoinShortestQueuePolicy(config.num_queue_states, config.d)
        env.reset(0)
        seen = []
        for _ in range(8):
            _, _, info = env.step_with_policy(policy)
            seen.append(float(env.current_rates[0]))
        # The env sees the sinusoid levels in order (shifted by one
        # epoch: current_rates reflects the post-step mode).
        expected = [
            DiurnalRate(0.75, 0.2, period=8).rate_at(t)
            for t in range(1, 9)
        ]
        assert np.allclose(seen, expected)

    def test_pickles_with_cursor_reset_semantics(self):
        import pickle

        f = FlashCrowdRate(base_rate=0.6, peak_rate=1.2, spike_epoch=3)
        f.sample_initial_mode()
        f.step_mode(0)
        clone = pickle.loads(pickle.dumps(f))
        # A pickled copy replays identically after reset.
        assert clone.sample_initial_mode() == f.mode_at(0)
