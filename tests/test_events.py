"""Event-driven simulator tests: agreement with the lock-step CTMC."""

import numpy as np
import pytest

from repro.meanfield.decision_rule import DecisionRule
from repro.queueing.clients import sample_client_choices_batched
from repro.queueing.events import simulate_epoch_event_driven
from repro.queueing.queue_ctmc import simulate_queues_epoch_batched


def sample_choices(queue_states, num_clients, rule, rng):
    """``(sampled, slots, committed)`` of one replica."""
    sampled, slots, committed = sample_client_choices_batched(
        queue_states[None, :], num_clients, rule, rng
    )
    return sampled[0], slots[0], committed[0]


class TestValidation:
    def test_rejects_bad_states(self, rng):
        with pytest.raises(ValueError):
            simulate_epoch_event_driven(
                np.array([9]), np.array([0]), 0.9, 1.0, 1.0, 5, rng
            )

    def test_rejects_bad_committed(self, rng):
        with pytest.raises(ValueError):
            simulate_epoch_event_driven(
                np.array([0, 1]), np.array([0, 5]), 0.9, 1.0, 1.0, 5, rng
            )

    def test_per_packet_needs_both_args(self, rng):
        with pytest.raises(ValueError):
            simulate_epoch_event_driven(
                np.array([0, 1]),
                np.array([0, 1]),
                0.9,
                1.0,
                1.0,
                5,
                rng,
                sampled=np.array([[0, 1], [1, 0]]),
            )


class TestAgreementWithLockstep:
    """Event-driven and frozen-rate simulation agree in distribution."""

    def test_mean_final_states_agree(self, rng):
        m, n, buffer_size, lam, dt = 12, 144, 5, 0.9, 2.0
        rule = DecisionRule.join_shortest(6, 2)
        base_states = rng.integers(0, 6, size=m)
        reps = 300
        ev_sum = np.zeros(m)
        ls_sum = np.zeros(m)
        ev_drops = 0.0
        ls_drops = 0.0
        for _ in range(reps):
            _, _, committed = sample_choices(base_states, n, rule, rng)
            counts = np.bincount(committed, minlength=m)
            # event-driven with job-level arrivals
            new_e, d_e = simulate_epoch_event_driven(
                base_states, committed, lam, 1.0, dt, buffer_size, rng
            )
            # frozen-rate lock-step with Eq. (5) rates
            rates = m * lam * counts / n
            (new_l,), (d_l,) = simulate_queues_epoch_batched(
                base_states[None, :], rates[None, :], 1.0, dt, buffer_size, rng
            )
            ev_sum += new_e
            ls_sum += new_l
            ev_drops += d_e.sum()
            ls_drops += d_l.sum()
        # means agree within Monte-Carlo noise
        assert np.abs(ev_sum / reps - ls_sum / reps).max() < 0.35
        assert abs(ev_drops - ls_drops) / reps < 0.6

    def test_empty_system_no_events_without_arrivals(self, rng):
        states = np.zeros(5, dtype=int)
        new, drops = simulate_epoch_event_driven(
            states, np.zeros(10, dtype=int), 0.0, 1.0, 10.0, 5, rng
        )
        assert np.all(new == 0)
        assert np.all(drops == 0)

    def test_overload_drops_jobs(self, rng):
        """All clients committed to queue 0, huge λ: queue 0 fills, drops."""
        states = np.zeros(4, dtype=int)
        committed = np.zeros(50, dtype=int)
        new, drops = simulate_epoch_event_driven(
            states, committed, 5.0, 0.5, 3.0, 5, rng
        )
        assert new[0] >= 3
        assert drops[0] > 0
        assert np.all(drops[1:] == 0)

    def test_per_packet_mode_uses_snapshot(self, rng):
        """Per-packet routing respects the epoch-start snapshot: with JSQ
        and one empty + one full sampled queue, all packets go to the
        empty one even as it fills."""
        states = np.array([0, 5])
        rule = DecisionRule.join_shortest(6, 2)
        sampled = np.tile([0, 1], (20, 1))
        committed = np.zeros(20, dtype=int)
        new, drops = simulate_epoch_event_driven(
            states,
            committed,
            2.0,
            0.05,
            3.0,
            5,
            rng,
            sampled=sampled,
            rule=rule,
        )
        # queue 1 receives no packets: it can only drain
        assert new[1] <= 5
        assert drops[1] == 0
        # queue 0 receives everything: with ~12 arrivals it fills and drops
        assert new[0] > 0

    def test_per_packet_and_committed_agree_for_deterministic_rule(self, rng):
        """For a deterministic rule, per-packet resampling equals the
        committed choice, so the two modes coincide in distribution."""
        m, n, lam, dt = 8, 64, 0.9, 1.5
        rule = DecisionRule.join_shortest(6, 2)
        base_states = rng.integers(0, 6, size=m)
        reps = 200
        sum_committed = np.zeros(m)
        sum_perpacket = np.zeros(m)
        for _ in range(reps):
            sampled, _, committed = sample_choices(base_states, n, rule, rng)
            new_c, _ = simulate_epoch_event_driven(
                base_states, committed, lam, 1.0, dt, 5, rng
            )
            new_p, _ = simulate_epoch_event_driven(
                base_states, committed, lam, 1.0, dt, 5, rng,
                sampled=sampled, rule=rule,
            )
            sum_committed += new_c
            sum_perpacket += new_p
        assert np.abs(sum_committed / reps - sum_perpacket / reps).max() < 0.4
