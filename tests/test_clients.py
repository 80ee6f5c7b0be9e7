"""Tests for the client/dispatcher layer (Eq. 3-5, 14-15)."""

import numpy as np
import pytest

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import per_state_arrival_rates
from repro.queueing.backends import draw_uniform_queue_samples
from repro.queueing.clients import (
    committed_counts_from_samples,
    expected_choice_counts,
    infinite_client_rates_batched,
    sample_client_choices_batched,
    stack_rules,
)


def sample_choices(queue_states, num_clients, rule, rng):
    """``(sampled, slots, committed)`` of one replica."""
    sampled, slots, committed = sample_client_choices_batched(
        queue_states[None, :], num_clients, rule, rng
    )
    return sampled[0], slots[0], committed[0]


def choice_counts(queue_states, num_clients, rule, rng):
    """Committed-client counts of one replica: sample, then choose."""
    sampled = draw_uniform_queue_samples(
        rng, 1, num_clients, rule.d, queue_states.size
    )
    return committed_counts_from_samples(
        queue_states[None, :], sampled, stack_rules(rule, 1), rng
    )[0]


def infinite_rates(queue_states, rule, lam):
    """Frozen ``N → ∞`` rates of one replica."""
    return infinite_client_rates_batched(
        queue_states[None, :], rule, np.array([lam])
    )[0]


@pytest.fixture
def queue_states(rng):
    return rng.integers(0, 6, size=30)


class TestSampling:
    def test_shapes(self, queue_states, rng):
        rule = DecisionRule.uniform(6, 2)
        sampled, slots, committed = sample_choices(queue_states, 500, rule, rng)
        assert sampled.shape == (500, 2)
        assert slots.shape == (500,)
        assert committed.shape == (500,)
        assert np.all((0 <= sampled) & (sampled < 30))
        assert np.all((0 <= slots) & (slots < 2))

    def test_committed_consistent_with_slots(self, queue_states, rng):
        rule = DecisionRule.join_shortest(6, 2)
        sampled, slots, committed = sample_choices(queue_states, 200, rule, rng)
        assert np.array_equal(committed, sampled[np.arange(200), slots])

    def test_jsq_commits_to_shorter_sample(self, queue_states, rng):
        rule = DecisionRule.join_shortest(6, 2)
        sampled, slots, committed = sample_choices(queue_states, 500, rule, rng)
        z = queue_states[sampled]
        chosen_state = queue_states[committed]
        assert np.all(chosen_state == z.min(axis=1))

    def test_counts_sum_to_num_clients(self, queue_states, rng):
        rule = DecisionRule.uniform(6, 2)
        counts = choice_counts(queue_states, 777, rule, rng)
        assert counts.shape == (30,)
        assert counts.sum() == 777

    def test_rejects_zero_clients(self, queue_states, rng):
        with pytest.raises(ValueError):
            sample_choices(queue_states, 0, DecisionRule.uniform(6, 2), rng)

    def test_uniform_rule_spreads_choices(self, rng):
        """Under RND the committed queue is uniform over all M queues."""
        states = rng.integers(0, 6, size=10)
        rule = DecisionRule.uniform(6, 2)
        counts = choice_counts(states, 100_000, rule, rng)
        assert np.allclose(counts / 100_000, 0.1, atol=0.01)


class TestExpectedCounts:
    def test_expected_counts_sum_to_n(self, queue_states):
        rule = DecisionRule.join_shortest(6, 2)
        expected = expected_choice_counts(queue_states, 1000, rule)
        assert expected.sum() == pytest.approx(1000.0)

    def test_expected_counts_match_empirical_mean(self, queue_states, rng):
        rule = DecisionRule.join_shortest(6, 2)
        n = 2000
        expected = expected_choice_counts(queue_states, n, rule)
        acc = np.zeros(queue_states.size)
        reps = 300
        for _ in range(reps):
            acc += choice_counts(queue_states, n, rule, rng)
        emp = acc / reps
        # standard error of a binomial count with p ~ expected/n
        sem = np.sqrt(np.maximum(expected, 1.0) / reps)
        assert np.all(np.abs(emp - expected) < 5 * sem + 1.0)

    def test_same_state_queues_get_same_expectation(self, rng):
        states = np.array([2, 2, 0, 5, 2])
        rule = DecisionRule.join_shortest(6, 2)
        expected = expected_choice_counts(states, 100, rule)
        assert expected[0] == pytest.approx(expected[1])
        assert expected[0] == pytest.approx(expected[4])


class TestInfiniteClientRates:
    def test_matches_mean_field_formula(self, queue_states):
        """λ_j = λ_t(H, z_j) — Eq. (14)-(15) / proof of Theorem 1."""
        rule = DecisionRule.join_shortest(6, 2)
        lam = 0.9
        rates = infinite_rates(queue_states, rule, lam)
        hist = np.bincount(queue_states, minlength=6) / queue_states.size
        per_state = per_state_arrival_rates(hist, rule, lam)
        assert np.allclose(rates, per_state[queue_states])

    def test_total_rate_is_m_lambda(self, queue_states):
        """Σ_j λ_j = M·λ — no arrival mass is lost."""
        rule = DecisionRule.join_shortest(6, 2)
        rates = infinite_rates(queue_states, rule, 0.7)
        assert rates.sum() == pytest.approx(queue_states.size * 0.7)

    def test_finite_client_rates_converge_to_infinite(self, queue_states, rng):
        """Eq. (5) → Eq. (15) as N → ∞ (conditional LLN)."""
        rule = DecisionRule.join_shortest(6, 2)
        lam = 0.9
        m = queue_states.size
        target = infinite_rates(queue_states, rule, lam)
        n = 2_000_000
        counts = choice_counts(queue_states, n, rule, rng)
        finite = m * lam * counts / n
        assert np.abs(finite - target).max() < 0.05

    def test_rnd_gives_lambda_everywhere(self, queue_states):
        rates = infinite_rates(queue_states, DecisionRule.uniform(6, 2), 0.8)
        assert np.allclose(rates, 0.8)
