"""Tests for the per-regime training campaign and its store durability.

The campaign's contract: a finished regime is a pure function of
``(regime, ppo, budget, seed)``. Everything here leans on that —
store resume after a kill is bit-identical, results are invariant to
the worker count, and a claimant that waits for another host's regime
merges exactly what that host trained.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.config import PPOConfig, SystemConfig
from repro.execution import ExecutionContext, MissingShardsError
from repro.experiments import campaign
from repro.experiments.campaign import (
    CAMPAIGN_DELTA_TS,
    REGIME_POLICY_LABEL,
    RegimeSpec,
    TrainingBudget,
    available_regime_checkpoints,
    campaign_ppo_config,
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


def _run_one(regime, context, seed=2, ppo=_PPO, budget=_BUDGET):
    """One regime's campaign result under ``context``."""
    return run_campaign([regime], ppo, budget, seed=seed, context=context)[
        regime.name
    ]


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
        context = ExecutionContext(store=ExperimentStore(tmp_path))
        run_campaign(regimes[:1], _PPO, _BUDGET, seed=1, context=context)
        # Resumed campaign: a replays from the store, b trains fresh.
        resumed = run_campaign(regimes, _PPO, _BUDGET, seed=1, context=context)
        assert resumed["a"].from_cache and not resumed["b"].from_cache
        for name in ("a", "b"):
            assert _states_equal(ref[name].policy, resumed[name].policy)
            assert np.array_equal(ref[name].curve, resumed[name].curve)

    def test_cached_result_restores_metadata(self, tmp_path):
        context = ExecutionContext(store=ExperimentStore(tmp_path))
        regime = _tiny_regime()
        first = _run_one(regime, context)
        again = _run_one(regime, context)
        assert again.from_cache
        assert again.key == first.key
        assert again.meta["kept"] == first.meta["kept"]
        assert again.policy.features == regime.features
        assert again.policy.age_context == regime.age_context()
        assert again.policy.name == REGIME_POLICY_LABEL

    def test_corrupted_shard_recomputes(self, tmp_path):
        store = ExperimentStore(tmp_path)
        context = ExecutionContext(store=store)
        regime = _tiny_regime()
        first = _run_one(regime, context)
        store.path_for(first.key).write_bytes(b"garbage")
        redone = _run_one(regime, context)
        assert not redone.from_cache
        assert _states_equal(first.policy, redone.policy)

    def test_nan_curve_point_resumes(self, tmp_path):
        """An iteration in which no episode ends has no mean return, so
        the curve holds a NaN. The store quarantines non-finite floats,
        yet the regime must still replay, NaN included."""
        # 60 steps per iteration over 2 envs: no 40-epoch episode ends in
        # the first iteration.
        regime = _tiny_regime(horizon=40)
        store = ExperimentStore(tmp_path)
        context = ExecutionContext(store=store)
        first = _run_one(regime, context)
        assert np.isnan(first.curve[0]) and np.isfinite(first.curve[1:]).all()
        again = _run_one(regime, context)
        assert again.from_cache and store.stats.invalid == 0
        assert np.array_equal(again.curve, first.curve, equal_nan=True)
        assert _states_equal(first.policy, again.policy)

    def test_full_disk_store_write_only_warns(self, tmp_path, full_disk):
        """A regime whose store cannot be written still returns its
        trained policy, equal to a storeless run; the failed write warns
        and is counted, not raised."""
        regime = _tiny_regime()
        ref = train_regime(regime, _PPO, _BUDGET, seed=2)
        store = ExperimentStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="store write failed"):
            result = _run_one(regime, ExecutionContext(store=store))
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
        seq = run_campaign(
            regimes, _PPO, _BUDGET, seed=1, context=ExecutionContext(workers=1)
        )
        par = run_campaign(
            regimes,
            _PPO,
            _BUDGET,
            seed=1,
            context=ExecutionContext(workers=2, store=ExperimentStore(tmp_path)),
        )
        assert set(seq) == set(par) == {"a", "b", "c"}
        for name in seq:
            assert _states_equal(seq[name].policy, par[name].policy)


class TestClaimMode:
    def test_claimed_regime_is_waited_for_then_merged(
        self, tmp_path, monkeypatch
    ):
        """A regime another host has claimed is waited for, then merged
        from the store once that host publishes it: every claimant
        returns the whole campaign."""
        store = ExperimentStore(tmp_path)
        regimes = [_tiny_regime("a"), _tiny_regime("b", horizon=12)]
        key_b = train_shard_key(regimes[1], _PPO, _BUDGET, 1)
        assert store.try_claim(key_b, "other-host")
        claimant = threading.current_thread()
        polled = threading.Event()
        polls = []
        real_sleep = time.sleep

        def sleep(seconds):
            if threading.current_thread() is claimant:
                polls.append(seconds)
                polled.set()
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", sleep)

        def other_host():
            other = ExperimentStore(tmp_path)
            try:
                # Train b only once the claimant has polled for it.
                polled.wait(timeout=60)
                run_campaign(
                    regimes[1:],
                    _PPO,
                    _BUDGET,
                    seed=1,
                    context=ExecutionContext(store=other),
                )
            finally:
                other.release_claim(key_b)

        host = threading.Thread(target=other_host)
        host.start()
        try:
            merged = run_campaign(
                regimes,
                _PPO,
                _BUDGET,
                seed=1,
                context=ExecutionContext(store=store, claim=True),
            )
        finally:
            host.join(timeout=120)
        assert not host.is_alive()
        assert polls, "the claimant never waited for regime b"
        assert set(merged) == {"a", "b"}
        assert not merged["a"].from_cache and merged["b"].from_cache
        ref = run_campaign(regimes, _PPO, _BUDGET, seed=1)
        for name in ("a", "b"):
            assert _states_equal(ref[name].policy, merged[name].policy)
        # Claims are released after computing: nothing left behind.
        assert store.claim_owner(key_b) is None
        assert store.claim_owner(merged["a"].key) is None

    def test_late_claimant_trains_unclaimed_regimes(
        self, tmp_path, monkeypatch
    ):
        """A host claims a regime just before training it, so a host
        that starts after another has begun training still gets a share
        of the campaign, and both return all of it."""
        regimes = [_tiny_regime(name) for name in "abcd"]
        late_trains = threading.Event()
        late_result = {}

        def host():
            context = ExecutionContext(
                store=ExperimentStore(tmp_path), claim=True
            )
            return run_campaign(regimes, _PPO, _BUDGET, seed=1, context=context)

        late = threading.Thread(
            target=lambda: late_result.update(host())
        )
        train = campaign.train_regime

        def train_then_start_late_host(*args, **kwargs):
            if threading.current_thread() is late:
                late_trains.set()
            elif late.ident is None:
                # The early host has claimed its first regime: start the
                # late host, and hold this regime until it trains one.
                late.start()
                late_trains.wait(timeout=20)
            return train(*args, **kwargs)

        monkeypatch.setattr(
            campaign, "train_regime", train_then_start_late_host
        )
        try:
            early_result = host()
        finally:
            if late.ident is not None:
                late.join(timeout=120)
        assert not late.is_alive()
        assert set(early_result) == set(late_result) == set("abcd")
        early, late_ = (
            {name for name, r in result.items() if not r.from_cache}
            for result in (early_result, late_result)
        )
        assert early and late_, f"early trained {early}, late {late_}"
        assert early.isdisjoint(late_) and early | late_ == set("abcd")
        for name in "abcd":
            assert _states_equal(
                early_result[name].policy, late_result[name].policy
            )

    def test_aged_claim_taken_over_only_with_stale_after(
        self, tmp_path, monkeypatch
    ):
        """A claim gets no heartbeat and a regime may train for hours, so
        an aged claim is taken over only when stale_after is set."""
        store = ExperimentStore(tmp_path)
        context = ExecutionContext(store=store, claim=True)
        regime = _tiny_regime()
        key = train_shard_key(regime, _PPO, _BUDGET, 2)
        assert store.try_claim(key, "killed-host")
        old = time.time() - 3600.0
        os.utime(store.claim_path_for(key), (old, old))

        class Polled(Exception):
            pass

        def poll(seconds):
            raise Polled

        with monkeypatch.context() as patch:
            patch.setattr(time, "sleep", poll)
            with pytest.raises(Polled):
                _run_one(regime, context)
        assert store.claim_owner(key) == "killed-host"

        result = run_campaign(
            [regime], _PPO, _BUDGET, seed=2, context=context, stale_after=60.0
        )[regime.name]
        assert not result.from_cache
        assert store.stats.claims_stolen == 1
        assert store.claim_owner(key) is None

    def test_merge_only_needs_every_regime(self, tmp_path):
        store = ExperimentStore(tmp_path)
        regimes = [_tiny_regime("a"), _tiny_regime("b", horizon=12)]
        trained = run_campaign(
            regimes[:1], _PPO, _BUDGET, seed=1, context=ExecutionContext(store=store)
        )
        merge = ExecutionContext(store=store, merge_only=True)
        with pytest.raises(MissingShardsError, match="missing 1 shard"):
            run_campaign(regimes, _PPO, _BUDGET, seed=1, context=merge)
        merged = run_campaign(regimes[:1], _PPO, _BUDGET, seed=1, context=merge)
        assert merged["a"].from_cache
        assert _states_equal(merged["a"].policy, trained["a"].policy)


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
        res = _run_one(
            regime, ExecutionContext(store=store), seed=0, ppo=ppo, budget=budget
        )
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
