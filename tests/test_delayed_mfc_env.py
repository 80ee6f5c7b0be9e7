"""Tests for the delayed MFC training environment and context features.

The load-bearing guarantee: ``DelayedMeanFieldEnv`` at an age-0 point
mass with features off is **bit-identical** to ``MeanFieldEnv`` — same
observations, rewards and RNG stream — so every golden trace and every
policy trained on the paper's environment transfers unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PPOConfig, SystemConfig, paper_system_config
from repro.meanfield.delayed import DelayedMeanFieldPropagator
from repro.meanfield.delayed_env import DelayedMeanFieldEnv
from repro.meanfield.features import (
    ObservationFeatures,
    age_context,
    mean_occupancy,
    regime_age_context,
    regime_age_contexts_batch,
)
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.policies.learned import NeuralPolicy
from repro.policies.static import JoinShortestQueuePolicy
from repro.queueing.delays import (
    DeterministicDelay,
    IIDDelay,
    MarkovModulatedDelay,
)
from repro.rl.nn import GaussianPolicyNetwork
from repro.rl.ppo import PPOTrainer

_SYSTEM = SystemConfig(
    num_clients=64,
    num_queues=8,
    buffer_size=2,
    d=2,
    delta_t=1.0,
    episode_length=15,
    monte_carlo_runs=2,
)

_STOCHASTIC = MarkovModulatedDelay.synced_degraded()


def _random_actions(env, steps, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.5, size=(steps, env.action_size))


class TestAgeZeroBitIdentity:
    def test_matches_meanfield_env_exactly(self):
        steps = 12
        base = MeanFieldEnv(_SYSTEM, horizon=10, seed=0)
        delayed = DelayedMeanFieldEnv(_SYSTEM, horizon=10, seed=0)
        actions = _random_actions(base, steps, seed=99)
        obs_a = base.reset(seed=7)
        obs_b = delayed.reset(seed=7)
        assert np.array_equal(obs_a, obs_b)
        for t in range(steps):
            oa, ra, da, _ = base.step_raw(actions[t])
            ob, rb, db, _ = delayed.step_raw(actions[t])
            assert np.array_equal(oa, ob), t
            assert ra == rb
            assert da == db

    def test_default_observation_size_is_unchanged(self):
        base = MeanFieldEnv(_SYSTEM)
        delayed = DelayedMeanFieldEnv(_SYSTEM)
        assert delayed.observation_size == base.observation_size


class TestFeatures:
    def test_extra_dims(self):
        assert ObservationFeatures().extra_dims == 0
        assert ObservationFeatures(age=True).extra_dims == 2
        assert ObservationFeatures(occupancy=True).extra_dims == 1
        assert ObservationFeatures(age=True, occupancy=True).extra_dims == 3
        assert ObservationFeatures(age=True, occupancy=True).names() == (
            "mean_age_norm",
            "stale_fraction",
            "mean_occupancy",
        )

    def test_roundtrip(self):
        feats = ObservationFeatures(age=True, occupancy=True)
        assert ObservationFeatures.from_dict(feats.to_dict()) == feats
        assert ObservationFeatures.from_dict(None) == ObservationFeatures()

    def test_age_context_point_masses(self):
        assert age_context(DeterministicDelay(0)) == (0.0, 0.0)
        mean_norm, stale = age_context(DeterministicDelay(3))
        assert mean_norm == 1.0 and stale == 1.0

    def test_age_features_require_context(self):
        with pytest.raises(ValueError, match="age context"):
            ObservationFeatures(age=True).vector(np.array([0.5, 0.5]))

    def test_mean_occupancy(self):
        assert mean_occupancy(np.array([1.0, 0.0, 0.0])) == 0.0
        assert mean_occupancy(np.array([0.0, 0.0, 1.0])) == 1.0
        assert mean_occupancy(np.array([0.5, 0.0, 0.5])) == 0.5

    def test_env_observation_carries_features(self):
        feats = ObservationFeatures(age=True, occupancy=True)
        env = DelayedMeanFieldEnv(
            _SYSTEM, horizon=10, seed=0, delay_model=_STOCHASTIC, features=feats
        )
        obs = env.reset(seed=3)
        base_dim = env.num_queue_states + env.num_modes
        assert obs.shape == (base_dim + 3,)
        assert env.observation_size == base_dim + 3
        expected_age = age_context(_STOCHASTIC)
        assert obs[base_dim] == expected_age[0]
        assert obs[base_dim + 1] == expected_age[1]
        nu = obs[: env.num_queue_states]
        assert obs[base_dim + 2] == mean_occupancy(nu)


class TestLiveAgeFeatures:
    """The live-age channel: per-regime context in training and
    per-replica context at evaluation, all without extra RNG draws."""

    def test_live_age_requires_age(self):
        with pytest.raises(ValueError, match="live_age requires age"):
            ObservationFeatures(live_age=True)

    def test_live_age_roundtrip_and_dims(self):
        feats = ObservationFeatures(age=True, live_age=True)
        assert feats.extra_dims == 2  # live_age adds no dimensions
        assert ObservationFeatures.from_dict(feats.to_dict()) == feats
        # Pre-live checkpoints load with the flag off.
        legacy = {"age": True, "occupancy": False}
        assert not ObservationFeatures.from_dict(legacy).live_age

    def test_regime_age_context_is_conditional(self):
        # Synced regime routes on fresh snapshots; degraded does not.
        assert regime_age_context(_STOCHASTIC, 0) == (0.0, 0.0)
        mean_norm, stale = regime_age_context(_STOCHASTIC, 1)
        assert mean_norm > 0.0 and stale > 0.0
        batch = regime_age_contexts_batch(_STOCHASTIC, np.array([0, 1, 0]))
        assert batch.shape == (3, 2)
        assert tuple(batch[0]) == regime_age_context(_STOCHASTIC, 0)
        assert tuple(batch[1]) == regime_age_context(_STOCHASTIC, 1)

    def test_env_observation_tracks_the_regime(self):
        env = DelayedMeanFieldEnv(
            _SYSTEM,
            horizon=40,
            seed=0,
            delay_model=_STOCHASTIC,
            features=ObservationFeatures(age=True, live_age=True),
        )
        env.reset(seed=5)
        actions = _random_actions(env, 40, seed=11)
        base_dim = env.num_queue_states + env.num_modes
        seen = set()
        for t in range(40):
            obs, _, _, info = env.step_raw(actions[t])
            expected = regime_age_context(
                _STOCHASTIC, int(info["delay_regime"])
            )
            assert tuple(obs[base_dim : base_dim + 2]) == expected
            seen.add(int(info["delay_regime"]))
        assert seen == {0, 1}  # the context actually switched

    def test_live_and_frozen_streams_are_identical(self):
        # live_age only changes the observation, never the dynamics: the
        # rewards and the regime paths must match bit for bit.
        kwargs = dict(horizon=30, seed=0, delay_model=_STOCHASTIC)
        frozen = DelayedMeanFieldEnv(
            _SYSTEM, features=ObservationFeatures(age=True), **kwargs
        )
        live = DelayedMeanFieldEnv(
            _SYSTEM,
            features=ObservationFeatures(age=True, live_age=True),
            **kwargs,
        )
        actions = _random_actions(frozen, 30, seed=3)
        frozen.reset(seed=9)
        live.reset(seed=9)
        for t in range(30):
            obs_a, rew_a, _, info_a = frozen.step_raw(actions[t])
            obs_b, rew_b, _, info_b = live.step_raw(actions[t])
            assert rew_a == rew_b
            assert info_a["delay_regime"] == info_b["delay_regime"]
            s = frozen.num_queue_states
            assert np.array_equal(obs_a[:s], obs_b[:s])

    def test_lockstep_eval_feeds_live_contexts(self):
        from repro.rl.evaluation import rollout_returns_lockstep

        s = _SYSTEM.num_queue_states
        network = GaussianPolicyNetwork(
            s + 2 + 2,
            s**_SYSTEM.d * _SYSTEM.d,
            hidden_sizes=(16,),
            rng=np.random.default_rng(0),
        )

        class RecordingPolicy(NeuralPolicy):
            seen: list = []

            def decision_rules_batch(
                self, nus, lam_modes, rng=None, age_contexts=None
            ):
                RecordingPolicy.seen.append(age_contexts)
                return super().decision_rules_batch(
                    nus, lam_modes, rng, age_contexts=age_contexts
                )

        policy = RecordingPolicy(
            network,
            num_states=s,
            d=_SYSTEM.d,
            features=ObservationFeatures(age=True, live_age=True),
            age_context=age_context(_STOCHASTIC),
        )
        env = DelayedMeanFieldEnv(
            _SYSTEM,
            horizon=8,
            seed=0,
            delay_model=_STOCHASTIC,
            features=ObservationFeatures(age=True, live_age=True),
        )
        returns = rollout_returns_lockstep(env, policy, episode_seeds=[1, 2, 3])
        assert returns.shape == (3,)
        assert np.all(np.isfinite(returns))
        assert RecordingPolicy.seen and all(
            ctx is not None and ctx.shape == (3, 2)
            for ctx in RecordingPolicy.seen
        )


class TestStochasticDelayDynamics:
    def test_laws_stay_normalized_and_rewards_finite(self):
        env = DelayedMeanFieldEnv(
            _SYSTEM, horizon=30, seed=0, delay_model=_STOCHASTIC
        )
        env.reset(seed=5)
        actions = _random_actions(env, 30, seed=11)
        regimes = set()
        for t in range(30):
            obs, reward, done, info = env.step_raw(actions[t])
            nu = obs[: env.num_queue_states]
            assert nu.sum() == pytest.approx(1.0)
            assert np.all(nu >= 0.0)
            assert np.isfinite(reward) and reward <= 0.0
            regimes.add(info["delay_regime"])
        # The synced<->degraded chain should actually switch in 30 epochs.
        assert regimes == {0, 1}

    def test_delayed_dynamics_differ_from_undelayed(self):
        base = MeanFieldEnv(_SYSTEM, horizon=20, seed=0)
        delayed = DelayedMeanFieldEnv(
            _SYSTEM, horizon=20, seed=0, delay_model=DeterministicDelay(3)
        )
        actions = _random_actions(base, 20, seed=2)
        base.reset(seed=7)
        delayed.reset(seed=7)
        rewards_a = [base.step_raw(a)[1] for a in actions]
        rewards_b = [delayed.step_raw(a)[1] for a in actions]
        assert rewards_a != rewards_b

    def test_set_state_restarts_the_delay_history(self):
        # With K > 0 the next step must advance the law set_state wrote,
        # from a history synced at it, not the history reset left behind.
        config = paper_system_config(delta_t=5.0)
        s = config.num_queue_states
        full = np.eye(s)[-1]
        rule = JoinShortestQueuePolicy(s, config.d).decision_rule(full, 0, None)
        drops = {}
        for name, model in (
            ("mixed", IIDDelay((0.5, 0.3, 0.2))),
            ("fresh", IIDDelay((1.0,))),
        ):
            env = DelayedMeanFieldEnv(config, seed=0, delay_model=model)
            env.reset(seed=1)
            env.set_state(full, 0)
            lam = env.current_rate
            _, _, _, info = env.step(rule)
            drops[name] = info["drops"]
        propagator = DelayedMeanFieldPropagator(
            full, 2, config.service_rate, config.delta_t
        )
        _, expected = propagator.step(rule, lam, np.asarray([0.5, 0.3, 0.2]))
        assert drops["mixed"] == expected
        assert drops["mixed"] == pytest.approx(drops["fresh"], rel=1e-9)

    def test_clone_preserves_delay_and_features(self):
        feats = ObservationFeatures(age=True)
        env = DelayedMeanFieldEnv(
            _SYSTEM, horizon=10, seed=0, delay_model=_STOCHASTIC, features=feats
        )
        clone = env.clone(seed=1)
        assert isinstance(clone, DelayedMeanFieldEnv)
        assert clone.features == feats
        assert clone.delay_model.max_delay == _STOCHASTIC.max_delay
        assert clone.observation_size == env.observation_size

    def test_ppo_trains_on_delayed_env(self):
        env = DelayedMeanFieldEnv(
            _SYSTEM,
            horizon=10,
            seed=0,
            delay_model=_STOCHASTIC,
            features=ObservationFeatures(age=True),
        )
        config = PPOConfig(
            learning_rate=1e-3,
            train_batch_size=40,
            minibatch_size=20,
            num_epochs=2,
            hidden_sizes=(16,),
            initial_log_std=-0.5,
        )
        trainer = PPOTrainer(
            env, config, seed=4, num_envs=2, independent_streams=True
        )
        stats = trainer.train_iteration()
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.mean_episode_return)


class TestLockstepStep:
    @pytest.mark.parametrize(
        "delay",
        [DeterministicDelay(0), IIDDelay((0.5, 0.3, 0.2)), _STOCHASTIC],
        ids=["age0", "iid", "markov"],
    )
    def test_fleet_keeps_the_per_environment_stream(self, delay):
        """A delayed fleet on one shared generator equals stepping its
        environments one at a time, resets and regime draws included
        (closure rows advance one by one inside the batched step)."""
        e = 3
        features = ObservationFeatures(age=True, occupancy=True, live_age=True)

        def fleet():
            env = DelayedMeanFieldEnv(
                _SYSTEM, horizon=4, delay_model=delay, features=features
            )
            return [env] + [env.clone() for _ in range(e - 1)]

        batched, loop = fleet(), fleet()
        shared_a, shared_b = np.random.default_rng(3), np.random.default_rng(3)
        for env in batched:
            env.reset(shared_a)
        for env in loop:
            env.reset(shared_b)
        actions = np.random.default_rng(5).normal(
            0.5, 0.5, size=(10, e, batched[0].action_size)
        )
        for raw in actions:
            step = DelayedMeanFieldEnv.step_raw_batch(batched, raw, [shared_a] * e)
            for i, env in enumerate(loop):
                obs, reward, done, info = env.step_raw(raw[i])
                assert np.array_equal(step.obs[i], obs)
                assert step.rewards[i] == reward
                assert step.infos[i]["delay_regime"] == info["delay_regime"]
                assert np.array_equal(step.infos[i]["delay_pmf"], info["delay_pmf"])
                if done:
                    obs = env.reset(shared_b)
                assert np.array_equal(step.next_obs[i], obs)


class TestNeuralPolicyFeatures:
    def _make_policy(self, feats, context):
        s = _SYSTEM.num_queue_states
        obs_dim = s + 2 + feats.extra_dims
        act_dim = s**_SYSTEM.d * _SYSTEM.d
        network = GaussianPolicyNetwork(
            obs_dim, act_dim, hidden_sizes=(16,), rng=np.random.default_rng(0)
        )
        return NeuralPolicy(
            network,
            num_states=s,
            d=_SYSTEM.d,
            features=feats,
            age_context=context,
        )

    def test_observation_geometry_is_validated(self):
        s = _SYSTEM.num_queue_states
        act_dim = s**_SYSTEM.d * _SYSTEM.d
        network = GaussianPolicyNetwork(
            s + 2, act_dim, hidden_sizes=(8,), rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="obs_dim"):
            NeuralPolicy(
                network,
                num_states=s,
                d=_SYSTEM.d,
                features=ObservationFeatures(age=True),
                age_context=(0.5, 0.5),
            )
        with pytest.raises(ValueError, match="age_context|age context"):
            NeuralPolicy(
                network,
                num_states=s,
                d=_SYSTEM.d,
                features=ObservationFeatures(age=True),
            )

    def test_save_load_roundtrip_preserves_features(self, tmp_path):
        feats = ObservationFeatures(age=True, occupancy=True)
        policy = self._make_policy(feats, context=(0.75, 0.8))
        path = policy.save(tmp_path / "policy.npz")
        loaded = NeuralPolicy.load(path)
        assert loaded.features == feats
        assert loaded.age_context == (0.75, 0.8)
        nu = np.array([0.2, 0.5, 0.3])
        rule_a = policy.decision_rule(nu, 1, None)
        rule_b = loaded.decision_rule(nu, 1, None)
        assert np.array_equal(rule_a.probs, rule_b.probs)

    def test_batch_query_matches_scalar_features(self):
        feats = ObservationFeatures(age=True, occupancy=True)
        policy = self._make_policy(feats, context=(0.4, 0.6))
        nus = np.array([[0.2, 0.5, 0.3], [0.7, 0.2, 0.1]])
        modes = np.array([0, 1])
        batch = policy.decision_rules_batch(nus, modes, None)
        for i in range(2):
            scalar = policy.decision_rule(nus[i], int(modes[i]), None)
            assert np.allclose(batch[i].probs, scalar.probs)

    def test_batch_query_accepts_live_age_contexts(self):
        feats = ObservationFeatures(age=True, live_age=True)
        policy = self._make_policy(feats, context=(0.4, 0.6))
        nus = np.array([[0.2, 0.5, 0.3], [0.7, 0.2, 0.1]])
        modes = np.array([0, 1])
        contexts = np.array([[0.0, 0.0], [1.0, 0.8]])
        live = policy.decision_rules_batch(
            nus, modes, None, age_contexts=contexts
        )
        frozen = policy.decision_rules_batch(nus, modes, None)
        # Different context => different rule (network input changed);
        # matching the frozen context => identical rule.
        assert not np.allclose(live[1].probs, frozen[1].probs)
        pinned = policy.decision_rules_batch(
            nus, modes, None, age_contexts=np.array([[0.4, 0.6]] * 2)
        )
        for rule_a, rule_b in zip(pinned, frozen):
            assert np.array_equal(rule_a.probs, rule_b.probs)

    def test_live_age_contexts_are_validated(self):
        feats = ObservationFeatures(age=True, live_age=True)
        policy = self._make_policy(feats, context=(0.4, 0.6))
        nus = np.array([[0.2, 0.5, 0.3]])
        with pytest.raises(ValueError, match="shape"):
            policy.decision_rules_batch(
                nus, np.array([0]), None, age_contexts=np.zeros((2, 2))
            )
        featless = self._make_policy(ObservationFeatures(), context=None)
        with pytest.raises(ValueError, match="no age features"):
            featless.decision_rules_batch(
                nus, np.array([0]), None, age_contexts=np.zeros((1, 2))
            )

    def test_legacy_checkpoint_loads_without_features(self, tmp_path):
        policy = self._make_policy(ObservationFeatures(), context=None)
        path = policy.save(tmp_path / "legacy.npz")
        loaded = NeuralPolicy.load(path)
        assert loaded.features == ObservationFeatures()
        assert loaded.age_context is None
