"""GAE tests, including the λ=1 ⇔ discounted-return identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.rl.gae import compute_gae


def discounted_returns(
    rewards: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    gamma: float,
) -> np.ndarray:
    """Per-step discounted returns (bootstrapped at truncation): the
    oracle for the GAE value target at ``λ = 1``."""
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    returns = np.zeros_like(rewards)
    running = float(bootstrap_value)
    for t in range(rewards.size - 1, -1, -1):
        if dones[t]:
            running = 0.0
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


class TestDiscountedReturns:
    def test_single_episode_hand_computed(self):
        rewards = np.array([1.0, 2.0, 3.0])
        dones = np.array([False, False, True])
        returns = discounted_returns(rewards, dones, 99.0, 0.5)
        # terminal: bootstrap ignored
        assert returns[2] == 3.0
        assert returns[1] == 2.0 + 0.5 * 3.0
        assert returns[0] == 1.0 + 0.5 * returns[1]

    def test_truncated_uses_bootstrap(self):
        rewards = np.array([1.0, 1.0])
        dones = np.array([False, False])
        returns = discounted_returns(rewards, dones, 10.0, 0.9)
        assert returns[1] == pytest.approx(1.0 + 0.9 * 10.0)
        assert returns[0] == pytest.approx(1.0 + 0.9 * returns[1])

    def test_episode_boundary_blocks_flow(self):
        rewards = np.array([1.0, 100.0])
        dones = np.array([True, True])
        returns = discounted_returns(rewards, dones, 0.0, 0.9)
        assert returns[0] == 1.0  # reward from the next episode must not leak


class TestComputeGAE:
    def test_validation(self):
        with pytest.raises(ValueError):
            compute_gae(np.ones(3), np.ones(2), np.zeros(3, bool), 0.0, 0.9, 1.0)
        with pytest.raises(ValueError):
            compute_gae(np.ones(3), np.ones(3), np.zeros(3, bool), 0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            compute_gae(np.ones(3), np.ones(3), np.zeros(3, bool), 0.0, 0.9, 1.5)

    def test_lambda1_equals_discounted_return_advantage(self, rng):
        t_len = 50
        rewards = rng.standard_normal(t_len)
        values = rng.standard_normal(t_len)
        dones = rng.random(t_len) < 0.1
        bootstrap = float(rng.standard_normal())
        adv, targets = compute_gae(rewards, values, dones, bootstrap, 0.99, 1.0)
        returns = discounted_returns(rewards, dones, bootstrap, 0.99)
        assert np.allclose(adv, returns - values)
        assert np.allclose(targets, returns)

    def test_lambda0_is_td_error(self, rng):
        t_len = 20
        rewards = rng.standard_normal(t_len)
        values = rng.standard_normal(t_len)
        dones = np.zeros(t_len, bool)
        bootstrap = 0.7
        adv, _ = compute_gae(rewards, values, dones, bootstrap, 0.9, 0.0)
        next_values = np.append(values[1:], bootstrap)
        td = rewards + 0.9 * next_values - values
        assert np.allclose(adv, td)

    def test_perfect_value_function_gives_zero_advantage(self):
        """If V equals the true return, every TD error vanishes."""
        rewards = np.array([1.0, 1.0, 1.0])
        dones = np.array([False, False, True])
        gamma = 0.9
        values = discounted_returns(rewards, dones, 0.0, gamma)
        adv, targets = compute_gae(rewards, values, dones, 0.0, gamma, 0.7)
        assert np.allclose(adv, 0.0, atol=1e-12)
        assert np.allclose(targets, values)

    def test_value_targets_are_advantage_plus_value(self, rng):
        rewards = rng.standard_normal(10)
        values = rng.standard_normal(10)
        dones = np.zeros(10, bool)
        adv, targets = compute_gae(rewards, values, dones, 0.0, 0.95, 0.5)
        assert np.allclose(targets, adv + values)

    @given(
        rewards=arrays(np.float64, st.integers(2, 30),
                       elements=st.floats(-5, 5, allow_nan=False)),
        gamma=st.floats(0.5, 0.999),
        lam=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_gae_interpolates_between_td_and_mc(self, rewards, gamma, lam):
        """For any λ, |GAE| ≤ max(|TD-advantage|, |MC-advantage|) bound
        does not hold in general, but the recursion must be finite and
        match a direct O(T²) evaluation."""
        t_len = rewards.size
        values = np.linspace(-1, 1, t_len)
        dones = np.zeros(t_len, bool)
        bootstrap = 0.3
        adv, _ = compute_gae(rewards, values, dones, bootstrap, gamma, lam)
        # direct evaluation: A_t = sum_k (gamma*lam)^k delta_{t+k}
        next_values = np.append(values[1:], bootstrap)
        deltas = rewards + gamma * next_values - values
        direct = np.zeros(t_len)
        for t in range(t_len):
            acc = 0.0
            for k in range(t_len - t):
                acc += (gamma * lam) ** k * deltas[t + k]
            direct[t] = acc
        assert np.allclose(adv, direct, atol=1e-9)
