"""Tests for the vectorized per-queue CTMC simulator."""

import numpy as np
import pytest

from repro.meanfield.analytic import mm1b_drop_rate, mm1b_stationary_distribution
from repro.meanfield.discretization import propagate_state
from repro.queueing.queue_ctmc import (
    simulate_queue_trajectory,
    simulate_queues_epoch_batched,
)


def simulate_one(states, arrival_rates, service_rates, delta_t, buffer_size, rng):
    """One ``M``-queue system through the batched kernel, ``(M,)`` shapes."""
    new_states, drops = simulate_queues_epoch_batched(
        np.asarray(states)[None, :],
        np.asarray(arrival_rates, dtype=np.float64)[None, :],
        service_rates,
        delta_t,
        buffer_size,
        rng,
    )
    return new_states[0], drops[0]


class TestValidation:
    def test_rejects_out_of_range_states(self, rng):
        with pytest.raises(ValueError):
            simulate_one(np.array([0, 7]), np.ones(2), 1.0, 1.0, 5, rng)

    def test_rejects_negative_rates(self, rng):
        with pytest.raises(ValueError):
            simulate_one(np.array([0, 1]), np.array([-0.1, 0.5]), 1.0, 1.0, 5, rng)

    def test_rejects_zero_service(self, rng):
        with pytest.raises(ValueError):
            simulate_one(np.array([0]), np.ones(1), 0.0, 1.0, 5, rng)

    def test_rejects_bad_delta_t(self, rng):
        with pytest.raises(ValueError):
            simulate_one(np.array([0]), np.ones(1), 1.0, 0.0, 5, rng)

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            simulate_one(np.array([0, 1]), np.ones(3), 1.0, 1.0, 5, rng)


class TestDistributionalCorrectness:
    """The empirical law after one epoch must match expm(G·Δt)."""

    @pytest.mark.parametrize(
        "z0,lam,dt", [(0, 0.9, 1.0), (2, 1.3, 2.0), (5, 1.8, 5.0), (3, 0.0, 1.0)]
    )
    def test_matches_matrix_exponential(self, z0, lam, dt, rng):
        m, buffer_size = 60_000, 5
        s = buffer_size + 1
        states = np.full(m, z0)
        new, _ = simulate_one(states, np.full(m, lam), 1.0, dt, buffer_size, rng)
        emp = np.bincount(new, minlength=s) / m
        trans, _ = propagate_state(np.full(s, lam), 1.0, dt, s)
        # 4-sigma tolerance per entry for a multinomial sample of size m
        tol = 4.0 * np.sqrt(trans[z0] * (1 - trans[z0]) / m) + 1e-9
        assert np.all(np.abs(emp - trans[z0]) <= tol)

    def test_expected_drops_match_exact(self, rng):
        m, buffer_size, lam, dt = 60_000, 5, 1.5, 3.0
        states = np.full(m, 4)
        _, drops = simulate_one(
            states, np.full(m, lam), 1.0, dt, buffer_size, rng
        )
        _, d_exact = propagate_state(
            np.full(buffer_size + 1, lam), 1.0, dt, buffer_size + 1
        )
        sem = drops.std() / np.sqrt(m)
        assert abs(drops.mean() - d_exact[4]) < 5 * sem + 1e-9

    def test_long_run_reaches_mm1b_stationarity(self, rng):
        m, buffer_size, lam = 20_000, 5, 0.8
        states = np.zeros(m, dtype=np.int64)
        for _ in range(30):
            states, _ = simulate_one(
                states, np.full(m, lam), 1.0, 2.0, buffer_size, rng
            )
        emp = np.bincount(states, minlength=buffer_size + 1) / m
        pi = mm1b_stationary_distribution(lam, 1.0, buffer_size)
        assert np.abs(emp - pi).max() < 0.015

    def test_stationary_drop_rate(self, rng):
        m, buffer_size, lam, dt = 20_000, 5, 0.9, 2.0
        states = np.zeros(m, dtype=np.int64)
        for _ in range(25):  # burn-in
            states, _ = simulate_one(
                states, np.full(m, lam), 1.0, dt, buffer_size, rng
            )
        total = 0.0
        epochs = 20
        for _ in range(epochs):
            states, drops = simulate_one(
                states, np.full(m, lam), 1.0, dt, buffer_size, rng
            )
            total += drops.mean()
        rate = total / (epochs * dt)
        assert rate == pytest.approx(mm1b_drop_rate(lam, 1.0, buffer_size), rel=0.05)


class TestEdgeCases:
    def test_zero_arrivals_only_drain(self, rng):
        states = np.array([3, 0, 5])
        new, drops = simulate_one(
            states, np.zeros(3), 1.0, 100.0, 5, rng
        )
        assert np.all(new == 0)
        assert np.all(drops == 0)

    def test_full_queue_overload_drops(self, rng):
        m = 2000
        states = np.full(m, 5)
        _, drops = simulate_one(
            states, np.full(m, 10.0), 0.01, 1.0, 5, rng
        )
        # nearly every arrival (≈10 per queue) is dropped
        assert drops.mean() > 8.0

    def test_states_stay_in_range(self, rng):
        states = rng.integers(0, 6, size=500)
        for _ in range(10):
            states, drops = simulate_one(
                states, rng.uniform(0, 1.8, 500), 1.0, 2.0, 5, rng
            )
            assert states.min() >= 0 and states.max() <= 5
            assert drops.min() >= 0

    def test_heterogeneous_service_rates(self, rng):
        """Faster servers end lower on average."""
        m = 4000
        states = np.full(2 * m, 3)
        service = np.concatenate([np.full(m, 0.5), np.full(m, 2.0)])
        new, _ = simulate_one(
            states, np.full(2 * m, 0.8), service, 5.0, 5, rng
        )
        assert new[:m].mean() > new[m:].mean() + 0.5

    def test_reproducible_with_seed(self):
        states = np.arange(6)
        a = simulate_one(
            states, np.full(6, 0.9), 1.0, 2.0, 5, np.random.default_rng(3)
        )
        b = simulate_one(
            states, np.full(6, 0.9), 1.0, 2.0, 5, np.random.default_rng(3)
        )
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTrajectory:
    def test_trajectory_shapes_and_bounds(self, rng):
        times, states, drops = simulate_queue_trajectory(2, 0.9, 1.0, 50.0, 5, rng)
        assert times.shape == states.shape
        assert times[0] == 0.0 and states[0] == 2
        assert np.all(np.diff(times) > 0)
        assert states.min() >= 0 and states.max() <= 5
        assert drops >= 0

    def test_trajectory_steps_are_unit_moves(self, rng):
        _, states, _ = simulate_queue_trajectory(3, 1.2, 1.0, 30.0, 5, rng)
        diffs = np.abs(np.diff(states))
        assert np.all(diffs <= 1)

    def test_trajectory_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            simulate_queue_trajectory(9, 1.0, 1.0, 1.0, 5, rng)
        with pytest.raises(ValueError):
            simulate_queue_trajectory(0, 1.0, 0.0, 1.0, 5, rng)
