"""Regression tests for the packaged policy checkpoints.

Every checkpoint that ships in ``src/repro/assets/policies/`` — the
paper's per-``Δt`` ``mf_dt*.npz`` set and the campaign's per-regime
``mf_regime_*.npz`` set — must load through its registry, expose the
paper's rule geometry, and produce *bit-identical* decision rules
across loads and through a save/load round trip on a pinned observation
batch. A small finite-system sweep pins the leaderboard's headline
ranking (MF at or below JSQ from ``Δt = 5``) under the bench seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.assets import POLICY_DIR
from repro.config import paper_system_config
from repro.experiments.campaign import (
    available_regime_checkpoints,
    get_regime_policy,
    regime_checkpoint_path,
)
from repro.policies.learned import NeuralPolicy
from repro.utils.serialization import load_npz_checkpoint, save_npz_checkpoint


def available_checkpoints() -> dict[float, Path]:
    """Map of delay -> packaged ``mf_dt{Δt}.npz`` checkpoint."""
    return {
        float(path.stem[len("mf_dt") :]): path
        for path in sorted(POLICY_DIR.glob("mf_dt*.npz"))
    }


PAPER_CHECKPOINTS = available_checkpoints()
REGIME_CHECKPOINTS = available_regime_checkpoints()


def _pinned_observation_batch(num_states: int = 6, num_modes: int = 2):
    """A fixed batch of (law, mode) queries shared by every test."""
    rng = np.random.default_rng(20260808)
    nus = rng.dirichlet(np.ones(num_states), size=16)
    modes = rng.integers(0, num_modes, size=16)
    return nus, modes


def _rule_stack(policy) -> np.ndarray:
    nus, modes = _pinned_observation_batch(
        policy.num_states, policy.num_modes
    )
    rules = policy.decision_rules_batch(nus, modes)
    return np.stack([rule.probs for rule in rules])


class TestPaperCheckpoints:
    def test_packaged_set_is_nonempty(self):
        assert PAPER_CHECKPOINTS, "no packaged mf_dt*.npz checkpoints"

    @pytest.mark.parametrize("delta_t", sorted(PAPER_CHECKPOINTS))
    def test_loads_with_paper_geometry(self, delta_t):
        policy = NeuralPolicy.load(PAPER_CHECKPOINTS[delta_t])
        config = paper_system_config(delta_t=delta_t)
        assert policy.num_states == config.num_queue_states
        assert policy.d == config.d
        assert policy.num_modes == 2
        assert policy.features.extra_dims == 0

    @pytest.mark.parametrize("delta_t", sorted(PAPER_CHECKPOINTS))
    def test_decision_rules_stable_across_loads(self, delta_t):
        first = _rule_stack(NeuralPolicy.load(PAPER_CHECKPOINTS[delta_t]))
        second = _rule_stack(NeuralPolicy.load(PAPER_CHECKPOINTS[delta_t]))
        assert np.array_equal(first, second)
        assert np.all(np.isfinite(first))

    def test_incomplete_checkpoint_refuses_to_load(self, tmp_path):
        """A checkpoint missing one layer must not load: that layer would
        keep the constructor's unseeded initialization."""
        arrays, meta = load_npz_checkpoint(PAPER_CHECKPOINTS[5.0])
        del arrays["policy/trunk/W1"]
        path = save_npz_checkpoint(tmp_path / "partial.npz", arrays, meta)
        with pytest.raises(ValueError, match=r"missing keys \['trunk/W1'\]"):
            NeuralPolicy.load(path)


class TestRegimeCheckpoints:
    def test_packaged_set_covers_the_delayed_grid(self):
        missing = [
            f"dt{dt:g}"
            for dt in (1.0, 3.0, 5.0, 7.0, 10.0)
            if f"dt{dt:g}" not in REGIME_CHECKPOINTS
        ]
        assert not missing, (
            f"campaign checkpoints missing for {missing}; run "
            "scripts/train_regime_policies.py"
        )

    @pytest.mark.parametrize("name", sorted(REGIME_CHECKPOINTS))
    def test_loads_with_campaign_label(self, name):
        policy = NeuralPolicy.load(REGIME_CHECKPOINTS[name])
        assert policy.name == "MF-regime"
        assert policy.num_states == 6
        assert policy.d == 2
        if policy.features.age:
            assert policy.age_context is not None

    @pytest.mark.parametrize("name", sorted(REGIME_CHECKPOINTS))
    def test_save_load_round_trip_is_bit_identical(self, name, tmp_path):
        policy = NeuralPolicy.load(REGIME_CHECKPOINTS[name])
        reloaded = NeuralPolicy.load(policy.save(tmp_path / "copy.npz"))
        assert np.array_equal(_rule_stack(policy), _rule_stack(reloaded))

    def test_resolution_prefers_exact_then_nearest(self):
        if "dt5" in REGIME_CHECKPOINTS:
            _policy, source = get_regime_policy(5.0)
            assert source == "checkpoint"
        if REGIME_CHECKPOINTS:
            _policy, source = get_regime_policy(4.0)
            assert source in ("checkpoint", "nearest-dt3", "nearest-dt5")

    def test_resolution_errors_without_fallback(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            get_regime_policy(5.0, directory=tmp_path, allow_fallback=False)
        assert not regime_checkpoint_path("dt5", tmp_path).exists()

    def test_fallback_reports_transplant_source(self, tmp_path):
        _policy, source = get_regime_policy(5.0, directory=tmp_path)
        assert source.startswith("transplant-")


class TestLeaderboardRanking:
    """The campaign's headline ordering on the finite delayed system."""

    @pytest.mark.parametrize("delta_t", [5.0, 10.0])
    def test_mf_at_or_below_jsq_under_staleness(self, delta_t):
        from repro.policies.static import JoinShortestQueuePolicy
        from repro.queueing.delayed_env import BatchedDelayedFiniteEnv
        from repro.queueing.batched_env import run_episodes_batched
        from repro.scenarios.builtin import stochastic_delay_model

        config = paper_system_config(delta_t=delta_t, num_queues=50)
        mf_policy, _source = get_regime_policy(delta_t)
        jsq = JoinShortestQueuePolicy(config.num_queue_states, config.d)

        def mean_drops(policy) -> float:
            env = BatchedDelayedFiniteEnv(
                config,
                num_replicas=4,
                delay_model=stochastic_delay_model(),
                seed=0,
            )
            result = run_episodes_batched(
                env, policy, num_epochs=60, seed=0
            )
            return float(result.mean_total_drops)

        assert mean_drops(mf_policy) <= mean_drops(jsq)
