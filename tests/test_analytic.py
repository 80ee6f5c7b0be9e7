"""Tests for the closed-form queueing formulas."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.meanfield.analytic import (
    mm1b_drop_rate,
    mm1b_loss_probability,
    mm1b_stationary_distribution,
    mmpp_stationary_distribution,
)


class TestMM1B:
    def test_distribution_sums_to_one(self):
        pi = mm1b_stationary_distribution(0.9, 1.0, 5)
        assert pi.shape == (6,)
        assert pi.sum() == pytest.approx(1.0)

    def test_geometric_shape(self):
        rho = 0.5
        pi = mm1b_stationary_distribution(rho, 1.0, 4)
        ratios = pi[1:] / pi[:-1]
        assert np.allclose(ratios, rho)

    def test_critical_load_is_uniform(self):
        pi = mm1b_stationary_distribution(1.0, 1.0, 5)
        assert np.allclose(pi, 1 / 6)

    def test_near_critical_is_continuous(self):
        """ρ→1 limit matches the uniform special case (no discontinuity)."""
        pi_near = mm1b_stationary_distribution(1.0 + 1e-9, 1.0, 5)
        assert np.allclose(pi_near, 1 / 6, atol=1e-6)

    def test_loss_probability_values(self):
        # rho=0.9, B=5: pi_B = rho^5 (1-rho) / (1 - rho^6)
        rho = 0.9
        expected = rho**5 * (1 - rho) / (1 - rho**6)
        assert mm1b_loss_probability(0.9, 1.0, 5) == pytest.approx(expected)

    def test_loss_increases_with_load(self):
        losses = [mm1b_loss_probability(lam, 1.0, 5) for lam in (0.3, 0.6, 0.9, 1.2)]
        assert losses == sorted(losses)

    def test_loss_decreases_with_buffer(self):
        losses = [mm1b_loss_probability(0.9, 1.0, b) for b in (1, 3, 5, 10)]
        assert losses == sorted(losses, reverse=True)

    def test_expected_length_monotone_in_load(self):
        lens = [
            mm1b_stationary_distribution(lam, 1.0, 5) @ np.arange(6)
            for lam in (0.2, 0.6, 1.0)
        ]
        assert lens == sorted(lens)

    def test_drop_rate_is_lambda_times_loss(self):
        assert mm1b_drop_rate(0.7, 1.0, 5) == pytest.approx(
            0.7 * mm1b_loss_probability(0.7, 1.0, 5)
        )

    def test_zero_arrivals(self):
        pi = mm1b_stationary_distribution(0.0, 1.0, 5)
        assert pi[0] == pytest.approx(1.0)
        assert mm1b_drop_rate(0.0, 1.0, 5) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mm1b_stationary_distribution(-0.1, 1.0, 5)
        with pytest.raises(ValueError):
            mm1b_stationary_distribution(0.5, 0.0, 5)
        with pytest.raises(ValueError):
            mm1b_stationary_distribution(0.5, 1.0, 0)

    @given(
        lam=st.floats(0.01, 3.0),
        mu=st.floats(0.1, 3.0),
        b=st.integers(1, 12),
    )
    # ρ just off 1: the law is geometric, not uniform, to 1e-8.
    @example(lam=1.0, mu=0.99999, b=1)
    @settings(max_examples=60, deadline=None)
    def test_detailed_balance_property(self, lam, mu, b):
        """π satisfies the birth-death balance λ·π(z) = μ·π(z+1)."""
        pi = mm1b_stationary_distribution(lam, mu, b)
        for z in range(b):
            assert lam * pi[z] == pytest.approx(mu * pi[z + 1], rel=1e-8)


class TestMMPPStationary:
    def test_paper_chain_is_5_7_2_7(self):
        p = np.array([[0.8, 0.2], [0.5, 0.5]])
        pi = mmpp_stationary_distribution(p)
        assert np.allclose(pi, [5 / 7, 2 / 7])

    def test_identity_chain_returns_valid_distribution(self):
        pi = mmpp_stationary_distribution(np.eye(3))
        assert pi.sum() == pytest.approx(1.0)

    def test_doubly_stochastic_is_uniform(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(mmpp_stationary_distribution(p), 0.5)

    def test_stationarity_equation(self, rng):
        for _ in range(5):
            p = rng.dirichlet(np.ones(4), size=4)
            pi = mmpp_stationary_distribution(p)
            assert np.allclose(pi @ p, pi, atol=1e-10)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            mmpp_stationary_distribution(np.array([[0.9, 0.2], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            mmpp_stationary_distribution(np.ones((2, 3)))
