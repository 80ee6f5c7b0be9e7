"""Tests for the per-regime training campaign and its store durability.

The campaign's contract: a finished regime is a pure function of
``(regime, ppo, budget, seed)``. Everything here leans on that —
store resume after a kill is bit-identical, results are invariant to
the worker count, and multi-host claim partitioning never recomputes a
finished shard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PPOConfig, SystemConfig
from repro.experiments.campaign import (
    CAMPAIGN_DELTA_TS,
    REGIME_POLICY_LABEL,
    RegimeSpec,
    TrainingBudget,
    available_regime_checkpoints,
    campaign_ppo_config,
    collect_cached,
    default_regimes,
    package_policies,
    regime_checkpoint_path,
    run_campaign,
    train_regime,
)
from repro.meanfield.features import ObservationFeatures
from repro.policies.learned import NeuralPolicy
from repro.queueing.delays import DeterministicDelay, MarkovModulatedDelay
from repro.rl.nn import GaussianPolicyNetwork, widen_input_weights
from repro.store.keys import train_shard_key
from repro.store.store import ExperimentStore

_SYSTEM = SystemConfig(
    num_clients=64,
    num_queues=8,
    buffer_size=2,
    d=2,
    delta_t=1.0,
    episode_length=15,
    monte_carlo_runs=2,
)

_PPO = PPOConfig(
    learning_rate=1e-3,
    train_batch_size=60,
    minibatch_size=30,
    num_epochs=2,
    hidden_sizes=(16,),
    initial_log_std=-0.5,
    seed=0,
)

_BUDGET = TrainingBudget(
    iterations=2, num_envs=2, critic_warmup=1, eval_episodes=3
)


def _tiny_regime(name="tiny", **overrides):
    kwargs = dict(
        name=name,
        config=_SYSTEM,
        delay_model=MarkovModulatedDelay.synced_degraded(),
        features=ObservationFeatures(age=True),
        horizon=10,
    )
    kwargs.update(overrides)
    return RegimeSpec(**kwargs)


def _states_equal(a: NeuralPolicy, b: NeuralPolicy) -> bool:
    sa, sb = a.network.state_dict(), b.network.state_dict()
    return set(sa) == set(sb) and all(
        np.array_equal(sa[k], sb[k]) for k in sa
    )


# ---------------------------------------------------------------------------
# Generic store entries
# ---------------------------------------------------------------------------
class TestStoreEntries:
    KEY = "e3" + "a" * 62

    def test_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        arrays = {"w": np.arange(6.0).reshape(2, 3), "curve": np.ones(4)}
        store.put_entry(self.KEY, arrays, meta={"regime": "dt5", "seed": 3})
        got = store.get_entry(self.KEY)
        assert got is not None
        got_arrays, meta = got
        assert set(got_arrays) == {"w", "curve"}
        assert np.array_equal(got_arrays["w"], arrays["w"])
        assert meta["regime"] == "dt5" and meta["seed"] == 3
        assert meta["key"] == self.KEY

    def test_miss_and_empty_entry_rejected(self, tmp_path):
        store = ExperimentStore(tmp_path)
        assert store.get_entry(self.KEY) is None
        assert store.stats.misses == 1
        with pytest.raises(ValueError, match="at least one array"):
            store.put_entry(self.KEY, {})

    def test_corrupted_entry_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put_entry(self.KEY, {"w": np.ones(3)})
        store.path_for(self.KEY).write_bytes(b"not an npz archive")
        assert store.get_entry(self.KEY) is None
        assert store.stats.invalid == 1
        assert not store.path_for(self.KEY).exists()

    def test_key_mismatch_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path)
        other = "ff" + "b" * 62
        store.put_entry(other, {"w": np.ones(3)})
        store.path_for(self.KEY).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(other).rename(store.path_for(self.KEY))
        assert store.get_entry(self.KEY) is None
        assert store.stats.invalid == 1

    def test_non_finite_floats_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put_entry(self.KEY, {"w": np.array([1.0, np.nan])})
        assert store.get_entry(self.KEY) is None
        assert store.stats.invalid == 1

    def test_put_shard_still_roundtrips(self, tmp_path):
        # put_shard now routes through put_entry; the shard API and its
        # num_runs bookkeeping must be unchanged.
        store = ExperimentStore(tmp_path)
        drops = np.array([1.0, 2.0, 3.0])
        store.put_shard(self.KEY, drops, meta={"note": "x"})
        got = store.get_shard(self.KEY, expected_runs=3)
        assert np.array_equal(got, drops)
        _, meta = store.get_entry(self.KEY)
        assert meta["num_runs"] == 3 and meta["note"] == "x"


# ---------------------------------------------------------------------------
# Training-shard keys
# ---------------------------------------------------------------------------
class TestTrainShardKey:
    def test_stable_across_constructions(self):
        k1 = train_shard_key(_tiny_regime(), _PPO, _BUDGET, 3)
        k2 = train_shard_key(_tiny_regime(), _PPO, _BUDGET, 3)
        assert k1 == k2 and len(k1) == 64

    @pytest.mark.parametrize(
        "variant",
        [
            lambda: train_shard_key(_tiny_regime(), _PPO, _BUDGET, 4),
            lambda: train_shard_key(
                _tiny_regime(horizon=11), _PPO, _BUDGET, 3
            ),
            lambda: train_shard_key(
                _tiny_regime(features=ObservationFeatures()), _PPO, _BUDGET, 3
            ),
            lambda: train_shard_key(
                _tiny_regime(delay_model=DeterministicDelay(2)),
                _PPO,
                _BUDGET,
                3,
            ),
            lambda: train_shard_key(
                _tiny_regime(),
                _PPO.with_updates(learning_rate=2e-3),
                _BUDGET,
                3,
            ),
            lambda: train_shard_key(
                _tiny_regime(),
                _PPO,
                TrainingBudget(
                    iterations=3,
                    num_envs=2,
                    critic_warmup=1,
                    eval_episodes=3,
                ),
                3,
            ),
        ],
    )
    def test_any_input_change_moves_the_key(self, variant):
        base = train_shard_key(_tiny_regime(), _PPO, _BUDGET, 3)
        assert variant() != base

    def test_default_campaign_keys_distinct(self):
        ppo = campaign_ppo_config(0)
        budget = TrainingBudget()
        keys = [
            train_shard_key(r, ppo, budget, 0) for r in default_regimes()
        ]
        assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Warm-start input widening
# ---------------------------------------------------------------------------
class TestWidenInputWeights:
    def test_widened_network_is_functionally_identical(self):
        net = GaussianPolicyNetwork(
            6, 4, hidden_sizes=(8,), rng=np.random.default_rng(0)
        )
        wide = GaussianPolicyNetwork(8, 4, hidden_sizes=(8,))
        wide.load_state_dict(widen_input_weights(net.state_dict(), 2))
        rng = np.random.default_rng(1)
        obs = rng.random((5, 6))
        ext = np.concatenate([obs, rng.random((5, 2))], axis=1)
        mu0, ls0, _ = net.forward(obs)
        mu1, ls1, _ = wide.forward(ext)
        # Zero first-layer rows: the appended features contribute exact
        # zeros, so the outputs agree bitwise, not just approximately.
        assert np.array_equal(mu0, mu1)
        assert np.array_equal(ls0, ls1)

    def test_zero_extra_dims_is_a_copy(self):
        net = GaussianPolicyNetwork(4, 2, hidden_sizes=(8,))
        state = net.state_dict()
        out = widen_input_weights(state, 0)
        assert set(out) == set(state)
        assert all(np.array_equal(out[k], state[k]) for k in state)
        out["trunk/W0"][0, 0] += 1.0  # copies, not views
        assert out["trunk/W0"][0, 0] != state["trunk/W0"][0, 0]

    def test_errors(self):
        with pytest.raises(ValueError, match="extra_dims"):
            widen_input_weights({"trunk/W0": np.ones((2, 2))}, -1)
        with pytest.raises(ValueError, match="first-layer"):
            widen_input_weights({"log_std": np.ones(2)}, 1)


# ---------------------------------------------------------------------------
# Campaign durability
# ---------------------------------------------------------------------------
class TestCampaignResume:
    def test_kill_resume_is_bit_identical(self, tmp_path):
        regimes = [
            _tiny_regime("a"),
            _tiny_regime("b", delay_model=DeterministicDelay(2)),
        ]
        # Reference: one uninterrupted run without a store.
        ref = run_campaign(regimes, _PPO, _BUDGET, seed=1)
        # "Killed" campaign: only regime a finished before the kill.
        store = ExperimentStore(tmp_path)
        run_campaign(regimes[:1], _PPO, _BUDGET, seed=1, store=store)
        # Resumed campaign: a replays from the store, b trains fresh.
        resumed = run_campaign(regimes, _PPO, _BUDGET, seed=1, store=store)
        assert resumed["a"].from_cache and not resumed["b"].from_cache
        for name in ("a", "b"):
            assert _states_equal(ref[name].policy, resumed[name].policy)
            assert np.array_equal(ref[name].curve, resumed[name].curve)

    def test_cached_result_restores_metadata(self, tmp_path):
        store = ExperimentStore(tmp_path)
        regime = _tiny_regime()
        first = train_regime(regime, _PPO, _BUDGET, seed=2, store=store)
        again = train_regime(regime, _PPO, _BUDGET, seed=2, store=store)
        assert again.from_cache
        assert again.key == first.key
        assert again.meta["kept"] == first.meta["kept"]
        assert again.policy.features == regime.features
        assert again.policy.age_context == regime.age_context()
        assert again.policy.name == REGIME_POLICY_LABEL

    def test_corrupted_shard_recomputes(self, tmp_path):
        store = ExperimentStore(tmp_path)
        regime = _tiny_regime()
        first = train_regime(regime, _PPO, _BUDGET, seed=2, store=store)
        store.path_for(first.key).write_bytes(b"garbage")
        redone = train_regime(regime, _PPO, _BUDGET, seed=2, store=store)
        assert not redone.from_cache
        assert _states_equal(first.policy, redone.policy)

    def test_full_disk_store_write_only_warns(self, tmp_path, full_disk):
        """A regime whose store cannot be written still returns its
        trained policy, equal to a storeless run; the failed write warns
        and is counted, not raised."""
        regime = _tiny_regime()
        ref = train_regime(regime, _PPO, _BUDGET, seed=2)
        store = ExperimentStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="store write failed"):
            result = train_regime(regime, _PPO, _BUDGET, seed=2, store=store)
        assert not result.from_cache
        assert _states_equal(ref.policy, result.policy)
        assert np.array_equal(ref.curve, result.curve)
        assert result.meta == ref.meta
        assert store.stats.write_errors == 1
        assert len(store) == 0


class TestWorkerInvariance:
    def test_results_invariant_to_worker_count(self, tmp_path):
        regimes = [
            _tiny_regime("a"),
            _tiny_regime("b", delay_model=DeterministicDelay(2)),
            _tiny_regime(
                "c",
                delay_model=None,
                features=ObservationFeatures(occupancy=True),
            ),
        ]
        seq = run_campaign(regimes, _PPO, _BUDGET, seed=1, workers=1)
        par = run_campaign(
            regimes,
            _PPO,
            _BUDGET,
            seed=1,
            store=ExperimentStore(tmp_path),
            workers=2,
        )
        assert set(seq) == set(par) == {"a", "b", "c"}
        for name in seq:
            assert _states_equal(seq[name].policy, par[name].policy)


class TestClaimMode:
    def test_claimed_regimes_are_skipped_then_resumed(self, tmp_path):
        store = ExperimentStore(tmp_path)
        regimes = [_tiny_regime("a"), _tiny_regime("b", horizon=12)]
        key_b = train_shard_key(regimes[1], _PPO, _BUDGET, 1)
        assert store.try_claim(key_b, "other-host")
        partial = run_campaign(
            regimes,
            _PPO,
            _BUDGET,
            seed=1,
            store=store,
            claim=True,
            owner="me",
        )
        assert set(partial) == {"a"}
        store.release_claim(key_b)
        full = run_campaign(
            regimes,
            _PPO,
            _BUDGET,
            seed=1,
            store=store,
            claim=True,
            owner="me",
        )
        assert set(full) == {"a", "b"}
        assert full["a"].from_cache and not full["b"].from_cache
        # Claims are released after computing: nothing left behind.
        assert store.claim_owner(key_b) is None

    def test_claim_mode_requires_store_and_owner(self):
        with pytest.raises(ValueError, match="store"):
            run_campaign([_tiny_regime()], _PPO, _BUDGET, claim=True)
        with pytest.raises(ValueError, match="owner"):
            run_campaign(
                [_tiny_regime()],
                _PPO,
                _BUDGET,
                claim=True,
                store=ExperimentStore("/tmp/unused-claim-store"),
            )

    def test_collect_cached_merges_only_finished(self, tmp_path):
        store = ExperimentStore(tmp_path)
        regimes = [_tiny_regime("a"), _tiny_regime("b", horizon=12)]
        run_campaign(regimes[:1], _PPO, _BUDGET, seed=1, store=store)
        merged = collect_cached(regimes, store, _PPO, _BUDGET, seed=1)
        assert set(merged) == {"a"}
        assert merged["a"].from_cache


# ---------------------------------------------------------------------------
# Regime catalogue and packaging
# ---------------------------------------------------------------------------
class TestDefaultRegimes:
    def test_catalogue_shape(self):
        regimes = {r.name: r for r in default_regimes()}
        expected = {f"dt{dt:g}" for dt in CAMPAIGN_DELTA_TS} | {
            "ring",
            "random-regular",
            "diurnal",
        }
        assert set(regimes) == expected
        for dt in CAMPAIGN_DELTA_TS:
            spec = regimes[f"dt{dt:g}"]
            assert spec.config.delta_t == dt
            assert spec.features.age and not spec.features.occupancy
            assert spec.warm_start_delta_t == dt
            assert spec.delay_model is not None
        for name in ("ring", "random-regular"):
            assert regimes[name].features.occupancy
        assert regimes["diurnal"].arrival_process is not None
        assert regimes["diurnal"].num_modes == 2

    def test_delayed_regimes_have_nontrivial_age_context(self):
        spec = next(r for r in default_regimes() if r.name == "dt5")
        ctx = spec.age_context()
        assert ctx is not None and 0.0 < ctx[0] <= 1.0 and 0.0 < ctx[1] < 1.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="name"):
            _tiny_regime(name="a/b")
        with pytest.raises(ValueError, match="horizon"):
            _tiny_regime(horizon=0)
        with pytest.raises(ValueError, match="iterations"):
            TrainingBudget(iterations=0)


class TestPackaging:
    def test_package_and_reload(self, tmp_path):
        regime = _tiny_regime()
        res = train_regime(regime, _PPO, _BUDGET, seed=2)
        paths = package_policies({regime.name: res}, tmp_path)
        assert paths[regime.name] == regime_checkpoint_path(
            regime.name, tmp_path
        )
        assert available_regime_checkpoints(tmp_path) == paths
        loaded = NeuralPolicy.load(paths[regime.name])
        assert loaded.name == REGIME_POLICY_LABEL
        assert loaded.features == regime.features
        nu = np.full(_SYSTEM.num_queue_states, 1.0 / _SYSTEM.num_queue_states)
        a = res.policy.decision_rule(nu, 0, None)
        b = loaded.decision_rule(nu, 0, None)
        assert np.array_equal(a.probs, b.probs)


class TestKeepBest:
    def test_losing_regime_packages_the_exact_warm_start(self, tmp_path):
        """Training runs in float32, so the trainer holds a rounded copy
        of the warm start. A regime whose trained policy loses must score
        and package the float64 warm state itself, bit for bit."""
        from repro.config import paper_system_config
        from repro.experiments.campaign import _warm_start_state
        from repro.rl.evaluation import evaluate_policy_mfc

        regime = RegimeSpec(
            name="keep-best",
            config=paper_system_config(delta_t=5.0),
            horizon=10,
            warm_start_delta_t=5.0,
        )
        # A destructive learning rate: the fine-tuned policy must lose.
        ppo = _PPO.with_updates(
            hidden_sizes=(256, 256), learning_rate=0.5, initial_log_std=0.0
        )
        budget = TrainingBudget(
            iterations=1, num_envs=2, critic_warmup=0, eval_episodes=3
        )
        warm_state = _warm_start_state(regime, ppo)
        assert warm_state is not None
        store = ExperimentStore(tmp_path)
        res = train_regime(regime, ppo, budget, seed=0, store=store)
        assert res.meta["kept"] == "warm-start"
        assert res.meta["trained_return"] < res.meta["warm_return"]

        packaged, _ = store.get_entry(res.key)
        for key, value in warm_state.items():
            assert packaged[f"policy/{key}"].tobytes() == value.tobytes(), key
            assert res.policy.network.state_dict()[key].tobytes() == value.tobytes()

        network = GaussianPolicyNetwork(
            obs_dim=regime.config.num_queue_states + 2,
            action_dim=regime.config.num_queue_states**regime.config.d
            * regime.config.d,
        )
        network.load_state_dict(warm_state)
        exact = evaluate_policy_mfc(
            regime.build_env(seed=1),
            NeuralPolicy(network, regime.config.num_queue_states, regime.config.d),
            episodes=budget.eval_episodes,
            seed=budget.eval_seed,
        )
        assert res.meta["warm_return"] == exact.mean
