"""Numerical Theorem-1 tests: finite systems approach the mean field."""

import numpy as np
import pytest

from repro.meanfield.convergence import mean_field_trajectory, trajectory_gap
from repro.meanfield.discretization import epoch_update
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy


class TestMeanFieldTrajectory:
    def test_matches_manual_epoch_updates(self, small_config):
        policy = JoinShortestQueuePolicy(6, 2)
        modes = np.array([0, 1, 0, 0])
        nus, drops = mean_field_trajectory(small_config, policy, modes)
        assert nus.shape == (5, 6)
        assert drops.shape == (4,)
        # replicate by hand
        nu = np.zeros(6)
        nu[0] = 1.0
        levels = [0.9, 0.6]
        for t, mode in enumerate(modes):
            rule = policy.decision_rule(nu, int(mode), None)
            nu, d = epoch_update(
                nu, rule, levels[mode], small_config.service_rate,
                small_config.delta_t,
            )
            assert np.allclose(nus[t + 1], nu)
            assert drops[t] == pytest.approx(d)

    def test_all_rows_are_distributions(self, small_config):
        policy = RandomPolicy(6, 2)
        nus, _ = mean_field_trajectory(small_config, policy, np.zeros(20, dtype=int))
        assert np.allclose(nus.sum(axis=1), 1.0)
        assert np.all(nus >= 0)


class TestTrajectoryGap:
    def test_gap_fields(self, small_config):
        policy = RandomPolicy(6, 2)
        gap = trajectory_gap(small_config, policy, num_epochs=10, seed=0)
        assert gap.l1_gaps.shape == (11,)
        assert gap.drop_gaps.shape == (10,)
        assert gap.l1_gaps[0] == pytest.approx(0.0)  # identical start
        assert gap.sup_l1_gap >= gap.mean_l1_gap >= 0
        assert gap.total_drop_gap >= 0

    def test_rejects_short_mode_sequence(self, small_config):
        with pytest.raises(ValueError):
            trajectory_gap(
                small_config,
                RandomPolicy(6, 2),
                num_epochs=10,
                mode_sequence=np.zeros(5, dtype=int),
            )

    def test_rejects_unknown_system(self, small_config):
        with pytest.raises(ValueError):
            trajectory_gap(
                small_config, RandomPolicy(6, 2), num_epochs=5, system="bogus"
            )

    @pytest.mark.parametrize("system", ["finite", "infinite-clients"])
    def test_gap_shrinks_with_m(self, small_config, system):
        """Theorem 1: sup_t ||H_t − ν_t||₁ decays as M grows."""
        policy = JoinShortestQueuePolicy(6, 2)
        modes = np.zeros(15, dtype=int)  # condition on constant-high rate

        def mean_gap(m, seeds=3):
            cfg = small_config.with_updates(num_queues=m, num_clients=m * m)
            gaps = [
                trajectory_gap(
                    cfg, policy, num_epochs=15, system=system,
                    mode_sequence=modes, seed=s,
                ).sup_l1_gap
                for s in range(seeds)
            ]
            return float(np.mean(gaps))

        small_gap = mean_gap(10)
        large_gap = mean_gap(160)
        assert large_gap < small_gap
        # CLT scaling suggests roughly 4x shrinkage; accept 2x
        assert large_gap < small_gap / 2

    def test_infinite_clients_closer_than_few_clients(self, small_config):
        """The middle term of Theorem 1: with very few clients the finite
        system is farther from the mean field than the N → ∞ system."""
        policy = JoinShortestQueuePolicy(6, 2)
        modes = np.zeros(12, dtype=int)
        cfg = small_config.with_updates(num_queues=60, num_clients=10)

        few = np.mean([
            trajectory_gap(cfg, policy, 12, "finite", modes, seed=s).sup_l1_gap
            for s in range(4)
        ])
        infinite = np.mean([
            trajectory_gap(cfg, policy, 12, "infinite-clients", modes, seed=s).sup_l1_gap
            for s in range(4)
        ])
        assert infinite < few

    def test_drop_totals_close_for_large_m(self, small_config):
        policy = RandomPolicy(6, 2)
        cfg = small_config.with_updates(num_queues=400, num_clients=4000)
        gap = trajectory_gap(cfg, policy, num_epochs=20, seed=1)
        # cumulative drops within 15% of the mean-field prediction
        denom = max(gap.total_drops_mean_field, 0.05)
        assert gap.total_drop_gap / denom < 0.3
