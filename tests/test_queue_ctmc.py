"""Tests for the vectorized per-queue CTMC simulator."""

import numpy as np
import pytest
from scipy import stats

from repro.meanfield.analytic import mm1b_drop_rate, mm1b_stationary_distribution
from repro.meanfield.discretization import propagate_state
from repro.queueing.backends.numba_backend import NumbaEpochKernel
from repro.queueing.backends.numpy_backend import NumpyEpochKernel
from repro.queueing.queue_ctmc import simulate_queues_epoch_batched

#: Poisson tail mass the uniformization series of :func:`epoch_law` drops.
TAIL = 1e-13
#: Per-test false-alarm level of the G-tests: a correct kernel fails one
#: with probability 1e-3 over seeds (the seeds below are fixed).
ALPHA = 1e-3


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


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(NumpyEpochKernel(), id="numpy"),
        pytest.param(NumbaEpochKernel(require_numba=False), id="numba-loops"),
    ],
)
class TestSharedValidation:
    """Both kernels validate through ``validate_epoch_inputs``: fractional
    states are refused rather than truncated, and a non-finite rate or
    ``Δt`` is named rather than failing inside ``rng.poisson``."""

    @staticmethod
    def serve(kernel, states=None, arrival=None, service=1.0, delta_t=1.0):
        states = np.zeros((1, 3), dtype=np.int64) if states is None else states
        arrival = np.full((1, 3), 0.5) if arrival is None else arrival
        return kernel.serve_epoch(
            states, arrival, service, delta_t, 5, np.random.default_rng(0)
        )

    def test_rejects_non_integer_states(self, kernel):
        with pytest.raises(ValueError, match="integer array"):
            self.serve(kernel, states=np.full((1, 3), 2.7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_arrival_rates(self, kernel, bad):
        with pytest.raises(ValueError, match="arrival_rates must be finite"):
            self.serve(kernel, arrival=np.array([[0.5, bad, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_service_rates(self, kernel, bad):
        with pytest.raises(ValueError, match="service_rates must be finite"):
            self.serve(kernel, service=np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_delta_t(self, kernel, bad):
        with pytest.raises(ValueError, match="delta_t must be finite"):
            self.serve(kernel, delta_t=bad)


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


def epoch_law(z0, lam, alpha, delta_t, buffer_size):
    """Exact joint pmf ``law[z, d]`` of (next state, drops) of one queue.

    Uniformization: the number of events in ``Δt`` is
    ``Poisson(RΔt)`` with ``R = λ + α``, and each event is independently
    an arrival with probability ``λ/R``. A dynamic program over
    ``(z, drops)`` gives the law after ``k`` events; the series over
    ``k`` stops at the first ``k`` with ``P(K > k) < TAIL``, so ``law``
    misses less than ``TAIL`` of the probability mass.
    """
    rate = lam + alpha
    q = lam / rate
    mean = rate * delta_t
    kmax = int(mean)
    while stats.poisson.sf(kmax, mean) >= TAIL:
        kmax += 1
    after = np.zeros((buffer_size + 1, kmax + 1))
    after[z0, 0] = 1.0
    law = stats.poisson.pmf(0, mean) * after
    for k in range(1, kmax + 1):
        nxt = np.zeros_like(after)
        nxt[1:] += q * after[:-1]  # arrival below B
        nxt[-1, 1:] += q * after[-1, :-1]  # arrival at B: dropped
        nxt[:-1] += (1 - q) * after[1:]  # departure above 0
        nxt[0] += (1 - q) * after[0]  # departure at 0: no-op
        after = nxt
        law += stats.poisson.pmf(k, mean) * after
    return law


def g_test_p_value(observed, expected):
    """G-test p-value of ``observed`` counts against ``expected`` ones.

    Bins expected fewer than 5 times are pooled into one bin so the
    chi-square approximation of the statistic holds.
    """
    small = expected < 5
    if small.any():
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
    seen = observed > 0
    g = 2.0 * np.sum(observed[seen] * np.log(observed[seen] / expected[seen]))
    return float(stats.chi2.sf(g, df=expected.size - 1))


#: ``(z0, λ, α, Δt, B)`` points of the exact-law tests: the paper's
#: load, a one-slot buffer, heavy overload (ρ = 8), a short and a long
#: epoch, and a full start.
LAW_POINTS = [
    (0, 0.9, 1.0, 1.0, 5),
    (1, 0.7, 1.0, 2.0, 1),
    (4, 8.0, 1.0, 2.0, 5),
    (3, 1.2, 1.0, 0.01, 5),
    (2, 0.9, 1.0, 10.0, 5),
    (3, 1.5, 0.5, 5.0, 3),
]


@pytest.mark.parametrize("z0,lam,alpha,dt,buffer_size", LAW_POINTS)
class TestExactEpochLaw:
    """The joint law of (next state, drops) after one epoch — the drop
    distribution beyond its mean, which the matrix-exponential tests
    above do not see."""

    CELLS = 20_000

    def test_oracle_marginals_match_matrix_exponential(
        self, z0, lam, alpha, dt, buffer_size
    ):
        law = epoch_law(z0, lam, alpha, dt, buffer_size)
        assert 0.0 <= 1.0 - law.sum() < TAIL + 1e-12
        s = buffer_size + 1
        trans, drops = propagate_state(np.full(s, lam), alpha, dt, s)
        np.testing.assert_allclose(law.sum(axis=1), trans[z0], atol=1e-12)
        mean_drops = law.sum(axis=0) @ np.arange(law.shape[1])
        assert mean_drops == pytest.approx(drops[z0], rel=1e-9, abs=1e-12)

    def test_kernel_draws_pass_g_test(self, z0, lam, alpha, dt, buffer_size):
        law = epoch_law(z0, lam, alpha, dt, buffer_size)
        n = self.CELLS
        new, drops = simulate_queues_epoch_batched(
            np.full((1, n), z0),
            np.full((1, n), lam),
            alpha,
            dt,
            buffer_size,
            np.random.default_rng(2024),
        )
        width = law.shape[1]
        assert drops.max() < width  # inside the truncated support
        observed = np.bincount(
            (new * width + drops).ravel(), minlength=law.size
        ).astype(float)
        assert g_test_p_value(observed, n * law.ravel()) > ALPHA


#: The ``B = 5`` points of :data:`LAW_POINTS`, which the mixed-batch
#: gate serves in one call.
MIXED_POINTS = [point for point in LAW_POINTS if point[4] == 5]


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(NumpyEpochKernel(), id="numpy"),
        pytest.param(NumbaEpochKernel(require_numba=False), id="numba-loops"),
    ],
)
class TestMixedBatchEpochLaw:
    """The ``B = 5`` law points shuffled together into one serve call.

    :class:`TestExactEpochLaw` gives every cell the same ``(z₀, λ, α)``,
    so a kernel that pairs a cell's events with another cell's arrival
    probability, state or drops still passes it. Here neighbouring
    cells follow different laws, so such a misalignment shows. The
    epoch law depends on ``λΔt`` and ``αΔt`` alone, so the points share
    ``Δt = 1`` with rescaled rates and a per-cell ``α``; each point's
    cells are G-tested against its own law at level ``ALPHA / 4``.
    """

    CELLS = 20_000

    def test_each_point_passes_g_test(self, kernel):
        z0, lam, alpha, dt, _ = np.array(MIXED_POINTS).T
        lam, alpha = lam * dt, alpha * dt
        num_points = len(MIXED_POINTS)
        rng = np.random.default_rng(2025)
        point = rng.permutation(
            np.repeat(np.arange(num_points), self.CELLS)
        ).reshape(4, -1)
        new, drops = kernel.serve_epoch(
            z0.astype(np.int64)[point], lam[point], alpha[point], 1.0, 5, rng
        )
        for i in range(num_points):
            law = epoch_law(int(z0[i]), lam[i], alpha[i], 1.0, 5)
            width = law.shape[1]
            cells = point == i
            assert drops[cells].max() < width
            observed = np.bincount(
                new[cells] * width + drops[cells], minlength=law.size
            ).astype(float)
            p_value = g_test_p_value(observed, self.CELLS * law.ravel())
            assert p_value > ALPHA / num_points, MIXED_POINTS[i]
