"""Streaming serving engine: sketches, windows, sharding, store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_system_config
from repro.execution import ExecutionContext
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    run_episodes_batched,
)
from repro.serving.engine import (
    StreamRequest,
    run_stream,
    run_stream_request,
    run_stream_scenario,
)
from repro.serving.metrics import (
    SUMMARY_FIELDS,
    P2Quantile,
    StreamingMetrics,
    WindowedSeries,
    _P2Batch,
    window_layout,
)


@pytest.fixture()
def config():
    return paper_system_config(num_queues=15, num_clients=90).with_updates(
        delta_t=2.0
    )


@pytest.fixture()
def jsq(config):
    return JoinShortestQueuePolicy(config.num_queue_states, config.d)


def _env(config, replicas=3, seed=0, **kwargs):
    kwargs.setdefault("per_packet_randomization", True)
    return BatchedFiniteSystemEnv(
        config, num_replicas=replicas, seed=seed, **kwargs
    )


class TestP2Quantile:
    """Property test (satellite): the P² sketch tracks np.quantile."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
        dist=st.sampled_from(["exponential", "normal", "uniform"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_tracks_exact_quantile_on_held_trajectories(self, seed, p, dist):
        rng = np.random.default_rng(seed)
        data = {
            "exponential": lambda: rng.exponential(2.0, 3000),
            "normal": lambda: rng.normal(5.0, 2.0, 3000),
            "uniform": lambda: rng.uniform(0.0, 10.0, 3000),
        }[dist]()
        sketch = P2Quantile(p)
        sketch.extend(data)
        exact = float(np.quantile(data, p))
        spread = float(data.max() - data.min())
        # P² has small *rank* error; the value error that buys depends on
        # the local density, so allow the wider of a few percent of the
        # sample range and the ±2%-rank quantile band around p (thin
        # tails — e.g. p = 0.99 on an exponential — are legitimately
        # loose in value space).
        band = float(
            np.quantile(data, min(p + 0.02, 1.0))
            - np.quantile(data, max(p - 0.02, 0.0))
        )
        assert abs(sketch.value - exact) <= max(0.05 * spread, band) + 1e-9

    def test_small_samples_are_exact(self):
        sketch = P2Quantile(0.5)
        sketch.extend([3.0, 1.0, 2.0])
        assert sketch.value == pytest.approx(np.quantile([1, 2, 3], 0.5))

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        sketch = P2Quantile(0.5)
        with pytest.raises(ValueError):
            sketch.add(float("nan"))
        with pytest.raises(ValueError):
            _ = P2Quantile(0.5).value

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_scalar(self, seed):
        """The vectorized lock-step batch performs the scalar update."""
        rng = np.random.default_rng(seed)
        data = rng.exponential(1.0, 500)
        scalar = {p: P2Quantile(p) for p in (0.5, 0.95)}
        batch = _P2Batch(np.asarray([0.5, 0.95]))
        for v in data:
            for sketch in scalar.values():
                sketch.add(float(v))
            batch.add(np.asarray([v, v]))
        assert np.allclose(
            batch.values(), [scalar[0.5].value, scalar[0.95].value]
        )


class TestWindowedSeries:
    def test_layout_matches_class(self):
        for horizon, window, cap in [
            (1000, 10, 8),
            (37, 5, 100),
            (64, 64, 1),
            (5, 10, 4),
        ]:
            series = WindowedSeries(window, 1, max_windows=cap)
            for _ in range(horizon):
                series.add_epoch([1.0])
            assert np.array_equal(
                series.widths(), window_layout(horizon, window, cap)
            )

    def test_coarsening_preserves_totals(self):
        series = WindowedSeries(4, 2, max_windows=4)
        values = np.arange(100, dtype=float)
        for v in values:
            series.add_epoch([v, 2 * v])
        sums = series.sums()
        assert sums[:, 0].sum() == pytest.approx(values.sum())
        assert sums[:, 1].sum() == pytest.approx(2 * values.sum())
        assert len(series.widths()) <= 5  # cap + open window

    def test_rows_are_per_epoch_means(self):
        series = WindowedSeries(5, 1, max_windows=100)
        for _ in range(10):
            series.add_epoch([3.0])
        assert np.allclose(series.rows(), 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedSeries(0, 1)
        series = WindowedSeries(2, 2)
        with pytest.raises(ValueError):
            series.add_epoch([1.0])

    def test_add_partial_folds_into_open_window(self):
        series = WindowedSeries(4, 2, max_windows=8)
        series.add_epoch([1.0, 1.0])
        series.add_partial([0.5, -0.5])
        for _ in range(3):
            series.add_epoch([1.0, 1.0])
        sums = series.sums()
        assert sums[0, 0] == pytest.approx(4.5)
        assert sums[0, 1] == pytest.approx(3.5)
        # The partial never advances the epoch clock.
        assert series.widths()[0] == 4

    def test_add_partial_on_boundary_charges_the_flushed_window(self):
        series = WindowedSeries(4, 1, max_windows=8)
        for _ in range(4):
            series.add_epoch([1.0])
        # The window just flushed; a between-epoch event lands on it
        # retroactively rather than pre-charging an empty window.
        series.add_partial([2.0])
        assert series.sums()[0, 0] == pytest.approx(6.0)
        assert series.widths()[0] == 4

    def test_add_partial_validates_shape(self):
        series = WindowedSeries(4, 2)
        with pytest.raises(ValueError, match="2 fields"):
            series.add_partial([1.0])


class TestStreamingMetrics:
    def test_summary_matches_batched_trajectory(self, config, jsq):
        """The fold reproduces what the trajectory-materializing driver
        computes, without storing the trajectory."""
        horizon = 30
        result = run_episodes_batched(
            _env(config, seed=4), jsq, num_epochs=horizon, seed=9
        )
        metrics = run_stream(
            _env(config, seed=4), jsq, horizon=horizon, window=7, seed=9
        )
        summaries = metrics.summaries()
        assert np.allclose(
            summaries[:, SUMMARY_FIELDS.index("total_drops_per_queue")],
            result.total_drops_per_queue,
            rtol=1e-12,
            atol=1e-9,
        )

    def test_summaries_window_invariant_bit_identical(self, config, jsq):
        """Satellite: streaming summaries are bit-identical regardless
        of window size for fixed seeds."""
        outputs = []
        for window in (3, 8, 30, 100):
            metrics = run_stream(
                _env(config, seed=2), jsq, horizon=30, window=window, seed=6
            )
            outputs.append(metrics.summaries())
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)

    def test_queue_length_quantiles_are_exact(self, config):
        metrics = StreamingMetrics(
            num_replicas=1,
            num_states=config.num_queue_states,
            service_rates=np.ones(config.num_queues),
            delta_t=1.0,
            window=10,
        )
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(50):
            states = rng.integers(
                0, config.num_queue_states, size=(1, config.num_queues)
            )
            samples.append(states.ravel())
            metrics.observe_epoch(
                states, np.zeros(1), np.zeros((1, config.num_queues))
            )
        held = np.concatenate(samples)
        summary = metrics.summaries()[0]
        for name, q in [("qlen_p50", 0.5), ("qlen_p95", 0.95), ("qlen_p99", 0.99)]:
            exact = np.quantile(held, q, method="inverted_cdf")
            assert summary[SUMMARY_FIELDS.index(name)] == exact

    def test_validation(self, config):
        metrics = StreamingMetrics(
            num_replicas=2,
            num_states=3,
            service_rates=np.ones(4),
            delta_t=1.0,
            window=5,
        )
        with pytest.raises(ValueError):
            metrics.observe_epoch(
                np.zeros((3, 4), dtype=int), np.zeros(3), np.zeros((3, 4))
            )
        with pytest.raises(ValueError):
            metrics.summaries()

    def test_extra_drops_land_in_summaries_and_window_rows(self):
        """Satellite: overflow accounted through ``observe_extra_drops``
        must show up in the operator window series (drop rate up,
        throughput down by the same mass), not only in the end-of-run
        summary totals."""
        from repro.serving.metrics import WINDOW_FIELDS

        m, delta_t = 4, 2.0
        metrics = StreamingMetrics(
            num_replicas=2,
            num_states=6,
            service_rates=np.ones(m),
            delta_t=delta_t,
            window=5,
        )
        states = np.zeros((2, m), dtype=int)
        rates = np.full((2, m), 0.5)
        metrics.observe_epoch(states, np.zeros(2), rates)
        extra = np.array([3.0, 1.0])
        metrics.observe_extra_drops(extra)
        summaries = metrics.summaries()
        drops_col = SUMMARY_FIELDS.index("total_drops_per_queue")
        np.testing.assert_allclose(summaries[:, drops_col], extra / m)
        row = metrics.windows.rows()[0]
        expected_rate = extra.mean() / (m * delta_t)
        assert row[WINDOW_FIELDS.index("drop_rate")] == pytest.approx(
            expected_rate
        )
        baseline = StreamingMetrics(
            num_replicas=2,
            num_states=6,
            service_rates=np.ones(m),
            delta_t=delta_t,
            window=5,
        )
        baseline.observe_epoch(states, np.zeros(2), rates)
        tp = WINDOW_FIELDS.index("throughput")
        assert metrics.windows.rows()[0][tp] == pytest.approx(
            baseline.windows.rows()[0][tp] - expected_rate
        )
        with pytest.raises(ValueError, match=">= 0"):
            metrics.observe_extra_drops(np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            metrics.observe_extra_drops(np.zeros(3))


class TestStreamRequest:
    def test_validation(self, config, jsq):
        with pytest.raises(ValueError):
            StreamRequest(config=config, policy=jsq, horizon=0, window=5)
        with pytest.raises(ValueError):
            StreamRequest(config=config, policy=jsq, horizon=5, window=0)
        with pytest.raises(ValueError):
            StreamRequest(
                config=config, policy=jsq, horizon=5, window=5, env_cls=dict
            )

    def test_worker_count_invariance(self, config, jsq):
        request = StreamRequest(
            config=config,
            policy=jsq,
            horizon=12,
            window=4,
            num_replicas=5,
            seed=3,
            env_kwargs={"per_packet_randomization": True},
            max_batch_replicas=2,
        )
        serial = run_stream_request(request, context=ExecutionContext(workers=1))
        pooled = run_stream_request(request, context=ExecutionContext(workers=2))
        assert np.array_equal(serial.summaries, pooled.summaries)
        assert np.allclose(serial.window_rows, pooled.window_rows)

    def test_chunking_invariance(self, config, jsq):
        """Replica chunk size never changes the merged summaries —
        the same discipline as the finite-sweep executor."""

        def result(chunk):
            request = StreamRequest(
                config=config,
                policy=jsq,
                horizon=10,
                window=5,
                num_replicas=4,
                seed=1,
                env_kwargs={"per_packet_randomization": True},
                max_batch_replicas=chunk,
            )
            return run_stream_request(request)

        full = result(4)
        split = result(1)
        # Chunk layouts spawn different seed children per replica, so
        # only the *shapes* and field structure are comparable...
        assert full.summaries.shape == split.summaries.shape
        # ...but identical layouts are bit-identical end to end.
        again = result(4)
        assert np.array_equal(full.summaries, again.summaries)

    def test_store_round_trip_and_resume(self, config, jsq, tmp_path):
        from repro.store import ExperimentStore

        request = StreamRequest(
            config=config,
            policy=jsq,
            horizon=10,
            window=4,
            num_replicas=4,
            seed=5,
            env_kwargs={"per_packet_randomization": True},
            max_batch_replicas=2,
        )
        cold = run_stream_request(request)
        store = ExperimentStore(tmp_path / "store")
        fresh = run_stream_request(request, context=ExecutionContext(store=store))
        assert store.stats.writes == 2
        assert store.stats.hits == 0
        warm = run_stream_request(request, context=ExecutionContext(store=store))
        assert store.stats.hits == 2
        assert np.array_equal(cold.summaries, fresh.summaries)
        assert np.array_equal(cold.summaries, warm.summaries)
        assert np.allclose(cold.window_rows, warm.window_rows)

    def test_shared_stateful_arrival_process_still_cache_hits(
        self, config, jsq, tmp_path
    ):
        """Regression: a ProfileRate's playback cursor is mutated by
        in-process runs; it must not leak into the shard fingerprint,
        or re-invoking the same request would never hit the cache."""
        from repro.queueing.workloads import DiurnalRate
        from repro.store import ExperimentStore

        request = StreamRequest(
            config=config,
            policy=jsq,
            horizon=8,
            window=4,
            num_replicas=2,
            seed=0,
            env_kwargs={
                "arrival_process": DiurnalRate(0.7, 0.1, period=6),
                "per_packet_randomization": True,
            },
        )
        store = ExperimentStore(tmp_path / "store")
        first = run_stream_request(request, context=ExecutionContext(store=store))
        assert store.stats.writes == 1
        # The shared arrival process now carries a non-zero cursor.
        second = run_stream_request(request, context=ExecutionContext(store=store))
        assert store.stats.hits == 1
        assert np.array_equal(first.summaries, second.summaries)

    def test_stream_keys_differ_from_sweep_keys(self, config, jsq):
        """A streaming shard must never collide with a finite-sweep
        shard of the same config/policy/seed."""
        from repro.experiments.parallel import EvalRequest, _decompose
        from repro.store.keys import shard_key, stream_shard_key

        sweep_request = EvalRequest(
            config=config, policy=jsq, num_runs=4, num_epochs=10, seed=5
        )
        shard = _decompose([sweep_request])[0]
        stream_request = StreamRequest(
            config=config,
            policy=jsq,
            horizon=10,
            window=4,
            num_replicas=4,
            seed=5,
        )
        stream_key = stream_shard_key(
            stream_request, shard.num_runs, shard.seeds[0]
        )
        assert stream_key != shard_key(sweep_request, shard)

    def test_window_in_key_but_not_in_summaries(self, config, jsq, tmp_path):
        """Different window → different cache entries, same summaries."""
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")

        def run(window):
            request = StreamRequest(
                config=config,
                policy=jsq,
                horizon=12,
                window=window,
                num_replicas=2,
                seed=0,
                env_kwargs={"per_packet_randomization": True},
            )
            return run_stream_request(request, context=ExecutionContext(store=store))

        a = run(3)
        b = run(12)
        assert store.stats.hits == 0  # window is part of the key
        assert np.array_equal(a.summaries, b.summaries)


class TestRunStreamScenario:
    def test_streams_registered_scenarios(self):
        for name in ("diurnal-stream", "flash-crowd", "stochastic-delay"):
            result = run_stream_scenario(
                name, horizon=8, window=4, num_replicas=2, num_queues=8
            )
            assert result.scenario == name
            assert result.summaries.shape == (2, len(SUMMARY_FIELDS))
            assert np.isfinite(result.summaries).all()
            table = result.format_table()
            assert name in table and "drop_rate" in table
            csv = result.to_csv()
            assert csv.splitlines()[0].startswith("epoch_start,width")

    def test_policy_selection_and_errors(self):
        result = run_stream_scenario(
            "diurnal-stream",
            horizon=6,
            window=3,
            num_replicas=1,
            num_queues=8,
            policy="RND",
        )
        assert result.policy_name == "RND"
        with pytest.raises(KeyError, match="available"):
            run_stream_scenario("diurnal-stream", horizon=6, policy="nope")
        with pytest.raises(KeyError, match="unknown scenario"):
            run_stream_scenario("not-a-scenario", horizon=6)

    def test_flash_crowd_spike_visible_in_series(self):
        """The windowed series is operator-grade: the flash crowd must
        show up as an arrival-rate bump in the covering window."""
        result = run_stream_scenario(
            "flash-crowd",
            horizon=160,
            window=20,
            num_replicas=2,
            num_queues=10,
            seed=1,
        )
        rates = result.window_rows[
            :, result.window_fields.index("arrival_rate")
        ]
        assert rates.argmax() == 5  # epochs 100..119 hold the ramp/peak
        assert rates.max() > 1.5 * rates[0]
