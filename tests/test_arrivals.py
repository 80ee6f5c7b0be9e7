"""Tests for the Markov-modulated arrival process (Eq. 1, 32-33)."""

import numpy as np
import pytest

from repro.queueing.arrivals import MarkovModulatedRate, ScriptedRate


class TestConstruction:
    def test_from_config_matches_paper(self, small_config):
        chain = MarkovModulatedRate.from_config(small_config)
        assert chain.num_modes == 2
        assert chain.levels.tolist() == [0.9, 0.6]
        assert np.allclose(
            chain.transition_matrix, [[0.8, 0.2], [0.5, 0.5]]
        )
        assert np.allclose(chain.initial_distribution, [0.5, 0.5])

    def test_constant_chain(self):
        chain = MarkovModulatedRate.constant(0.7)
        assert chain.num_modes == 1
        assert chain.rate(0) == 0.7
        assert chain.step_mode(0) == 0

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            MarkovModulatedRate([0.9, -0.1], np.eye(2))
        with pytest.raises(ValueError):
            MarkovModulatedRate([], np.zeros((0, 0)))

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            MarkovModulatedRate([0.9, 0.6], [[0.9, 0.2], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovModulatedRate([0.9, 0.6], np.eye(3))

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            MarkovModulatedRate([0.9, 0.6], np.eye(2), [0.7, 0.7])


class TestDynamics:
    def test_stationary_distribution_paper_values(self, small_config):
        chain = MarkovModulatedRate.from_config(small_config)
        assert np.allclose(chain.stationary_distribution(), [5 / 7, 2 / 7])
        assert chain.stationary_mean_rate() == pytest.approx(
            (5 * 0.9 + 2 * 0.6) / 7
        )

    def test_empirical_occupancy_matches_stationary(self, small_config, rng):
        chain = MarkovModulatedRate.from_config(small_config)
        modes = chain.simulate_modes(40_000, rng)
        frac_high = float((modes == 0).mean())
        assert abs(frac_high - 5 / 7) < 0.02

    def test_empirical_switch_frequencies(self, small_config, rng):
        chain = MarkovModulatedRate.from_config(small_config)
        modes = chain.simulate_modes(40_000, rng)
        high = modes[:-1] == 0
        h2l = float((modes[1:][high] == 1).mean())
        l2h = float((modes[1:][~high] == 0).mean())
        assert abs(h2l - 0.2) < 0.02
        assert abs(l2h - 0.5) < 0.02

    def test_step_mode_rejects_bad_mode(self, rng):
        chain = MarkovModulatedRate.constant(1.0)
        with pytest.raises(ValueError):
            chain.step_mode(5, rng)

    def test_reproducible_with_seed(self, small_config):
        chain = MarkovModulatedRate.from_config(small_config)
        a = chain.simulate_modes(100, np.random.default_rng(1))
        b = chain.simulate_modes(100, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_zero_steps(self, small_config, rng):
        chain = MarkovModulatedRate.from_config(small_config)
        assert chain.simulate_modes(0, rng).size == 0


class TestScriptedRate:
    def test_replays_sequence(self):
        script = ScriptedRate([0.9, 0.6], [0, 1, 1, 0])
        mode = script.sample_initial_mode()
        seen = [mode]
        for _ in range(3):
            mode = script.step_mode(mode)
            seen.append(mode)
        assert seen == [0, 1, 1, 0]

    def test_repeats_last_mode_beyond_end(self):
        script = ScriptedRate([0.9, 0.6], [0, 1])
        mode = script.sample_initial_mode()
        for _ in range(5):
            mode = script.step_mode(mode)
        assert mode == 1

    def test_initial_mode_resets_cursor(self):
        script = ScriptedRate([0.9, 0.6], [1, 0])
        assert script.sample_initial_mode() == 1
        assert script.step_mode(1) == 0
        # restarting replays from the beginning
        assert script.sample_initial_mode() == 1
        assert script.step_mode(1) == 0

    def test_from_process_freezes_trajectory(self, small_config, rng):
        base = MarkovModulatedRate.from_config(small_config)
        script = ScriptedRate.from_process(base, 50, rng)
        assert script.mode_sequence.shape == (50,)
        first = [script.sample_initial_mode()]
        m = first[0]
        for _ in range(49):
            m = script.step_mode(m)
            first.append(m)
        assert np.array_equal(first, script.mode_sequence)

    def test_rejects_out_of_range_sequence(self):
        with pytest.raises(ValueError):
            ScriptedRate([0.9, 0.6], [0, 2])
        with pytest.raises(ValueError):
            ScriptedRate([0.9, 0.6], [])
