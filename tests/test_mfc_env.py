"""Tests for the mean-field control MDP environment (Eq. 29-31)."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.meanfield.analytic import mm1b_drop_rate
from repro.policies.static import (
    ConstantRulePolicy,
    JoinShortestQueuePolicy,
    RandomPolicy,
)
from repro.queueing.arrivals import MarkovModulatedRate, ScriptedRate


class TestLifecycle:
    def test_requires_reset(self, small_config):
        env = MeanFieldEnv(small_config)
        with pytest.raises(RuntimeError):
            env.observation()
        with pytest.raises(RuntimeError):
            env.step(DecisionRule.uniform(6, 2))

    def test_reset_gives_initial_state(self, small_config):
        env = MeanFieldEnv(small_config, seed=0)
        obs = env.reset()
        assert obs.shape == (env.observation_size,) == (8,)
        state = env.state
        assert state.nu[small_config.initial_state] == 1.0
        assert state.t == 0
        # one-hot arrival mode appended
        assert obs[6:].sum() == pytest.approx(1.0)

    def test_action_size(self, small_config):
        env = MeanFieldEnv(small_config)
        assert env.action_size == 6**2 * 2

    def test_step_keeps_simplex(self, small_config, rng):
        env = MeanFieldEnv(small_config, seed=1)
        env.reset()
        for _ in range(30):
            raw = rng.random(env.action_size)
            obs, reward, done, info = env.step_raw(raw)
            nu = env.state.nu
            assert np.all(nu >= 0)
            assert nu.sum() == pytest.approx(1.0)
            assert reward <= 0
            assert info["drops"] >= 0

    def test_horizon_truncation(self, small_config):
        env = MeanFieldEnv(small_config, horizon=5, seed=0)
        env.reset()
        rule = DecisionRule.uniform(6, 2)
        flags = [env.step(rule)[2] for _ in range(5)]
        assert flags == [False, False, False, False, True]
        info_truncated = env.step(rule)  # past horizon keeps returning done
        assert env.state.t == 6

    def test_rule_geometry_validated(self, small_config):
        env = MeanFieldEnv(small_config, seed=0)
        env.reset()
        with pytest.raises(ValueError):
            env.step(DecisionRule.uniform(5, 2))

    def test_deterministic_given_modes(self, small_config):
        """All randomness is the arrival chain: scripting it makes the
        trajectory fully deterministic."""
        script = ScriptedRate([0.9, 0.6], [0, 1, 0, 0, 1])
        rule = DecisionRule.join_shortest(6, 2)
        trajectories = []
        for seed in (1, 2):
            env = MeanFieldEnv(
                small_config, arrival_process=script, seed=seed
            )
            env.reset()
            traj = []
            for _ in range(5):
                _, r, _, _ = env.step(rule)
                traj.append(r)
            trajectories.append(traj)
        assert trajectories[0] == trajectories[1]

    def test_set_state_validation(self, small_config):
        env = MeanFieldEnv(small_config, seed=0)
        with pytest.raises(ValueError):
            env.set_state(np.ones(6), 0)  # not a distribution
        with pytest.raises(ValueError):
            env.set_state(np.full(6, 1 / 6), 5)  # bad mode
        env.set_state(np.full(6, 1 / 6), 1, t=3)
        assert env.state.lam_mode == 1
        assert env.state.t == 3


class TestRewardSemantics:
    def test_rnd_constant_rate_drop_rate(self):
        """With a single-mode chain at λ=0.9 and the RND rule, long-run
        per-epoch drops equal the M/M/1/B stationary drop rate · Δt."""
        cfg = SystemConfig(delta_t=2.0)
        env = MeanFieldEnv(
            cfg,
            arrival_process=MarkovModulatedRate.constant(0.9),
            seed=0,
            horizon=10_000,
        )
        env.reset()
        rule = DecisionRule.uniform(6, 2)
        for _ in range(400):
            _, reward, _, info = env.step(rule)
        assert info["drops"] == pytest.approx(
            mm1b_drop_rate(0.9, 1.0, 5) * 2.0, rel=1e-6
        )
        assert reward == pytest.approx(-info["drops"])

    def test_drop_penalty_scales_reward(self, small_config):
        cfg = small_config.with_updates(drop_penalty=3.0)
        script = ScriptedRate([0.9, 0.6], [0] * 10)
        env_a = MeanFieldEnv(small_config, arrival_process=script, seed=0)
        env_b = MeanFieldEnv(cfg, arrival_process=script, seed=0)
        env_a.reset()
        env_b.reset()
        rule = DecisionRule.uniform(6, 2)
        for _ in range(5):
            _, ra, _, ia = env_a.step(rule)
            _, rb, _, ib = env_b.step(rule)
        assert ia["drops"] == pytest.approx(ib["drops"])
        assert rb == pytest.approx(3.0 * ra)


class TestRolloutReturn:
    def test_jsq_beats_rnd_at_delta1(self):
        cfg = SystemConfig(delta_t=1.0)
        env = MeanFieldEnv(cfg, horizon=100, seed=0)
        jsq = JoinShortestQueuePolicy(6, 2)
        rnd = RandomPolicy(6, 2)
        r_jsq = np.mean([env.rollout_return(jsq, seed=s) for s in range(5)])
        r_rnd = np.mean([env.rollout_return(rnd, seed=s) for s in range(5)])
        assert r_jsq > r_rnd

    def test_rnd_less_delay_sensitive_than_jsq(self):
        """Paper's central claim: JSQ(2) degrades with the delay much
        faster than RND. (RND is not perfectly delay-*independent* here
        because the modulated arrival rate is frozen for a whole epoch
        and drops are convex in the rate, but the effect is an order of
        magnitude smaller than JSQ's herding.)"""
        def per_time_return(policy, delta_t):
            cfg = SystemConfig(delta_t=delta_t)
            steps = round(200 / delta_t)
            env = MeanFieldEnv(cfg, horizon=steps, seed=0)
            rets = [env.rollout_return(policy, seed=s) for s in range(4)]
            return np.mean(rets) / 200.0  # per unit time

        rnd = RandomPolicy(6, 2)
        jsq = JoinShortestQueuePolicy(6, 2)
        rnd_1, rnd_8 = per_time_return(rnd, 1.0), per_time_return(rnd, 8.0)
        jsq_1, jsq_8 = per_time_return(jsq, 1.0), per_time_return(jsq, 8.0)
        rnd_degradation = rnd_1 - rnd_8
        jsq_degradation = jsq_1 - jsq_8
        assert abs(rnd_degradation) < 0.02
        assert jsq_degradation > 0.03
        assert jsq_degradation > 2 * abs(rnd_degradation)

    def test_discounted_return_smaller_in_magnitude(self, small_config):
        env = MeanFieldEnv(small_config, horizon=50, seed=0)
        policy = ConstantRulePolicy(DecisionRule.uniform(6, 2))
        undiscounted = env.rollout_return(policy, seed=3)
        discounted = env.rollout_return(policy, discount=0.9, seed=3)
        assert abs(discounted) < abs(undiscounted)

    def test_unknown_propagator_rejected(self, small_config):
        """The closed form is the only kernel: naming the grid-interpolated
        table fails like any unknown name."""
        for kind in ("magic", "tabulated"):
            with pytest.raises(ValueError, match="propagator"):
                MeanFieldEnv(small_config, propagator=kind)
        assert MeanFieldEnv(small_config, propagator="exact").horizon == 50


def _coin_arrivals() -> MarkovModulatedRate:
    """Two modes, every draw a fair coin: any reordering of the draws on
    a shared generator shows up in the mode trajectories."""
    return MarkovModulatedRate(
        [0.9, 0.6], np.full((2, 2), 0.5), initial_distribution=[0.5, 0.5]
    )


def _fleet(config, count, horizon=3, **kwargs):
    env = MeanFieldEnv(
        config,
        horizon=horizon,
        arrival_process=_coin_arrivals(),
        **kwargs,
    )
    return [env] + [env.clone() for _ in range(count - 1)]


def _assert_same_fleet_step(a, b):
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.dones, b.dones)
    assert np.array_equal(a.next_obs, b.next_obs)
    for info_a, info_b in zip(a.infos, b.infos):
        assert info_a.keys() == info_b.keys()
        for key in info_a:
            assert np.array_equal(info_a[key], info_b[key])


class TestLockstepStep:
    """One batched step moves all E laws (one Eq. 22 call, one propagate
    call); ``step`` is its E = 1 case."""

    def test_single_row_is_the_kernel_epoch(self, small_config, rng):
        """``step_raw`` equals the kernel's single-law epoch and the
        mode chain's own step, bit for bit."""
        import copy

        from repro.meanfield.discretization import (
            ExactPropagator,
            per_state_arrival_rates,
        )

        env = MeanFieldEnv(small_config, seed=4)
        env.reset()
        kernel = ExactPropagator(6, small_config.service_rate, small_config.delta_t)
        for _ in range(4):
            nu, mode = env.state.nu, env.state.lam_mode
            raw = rng.random(env.action_size)
            rates = per_state_arrival_rates(
                nu, DecisionRule.from_raw(raw, 6, 2), env.current_rate
            )
            nu_next, drops = kernel.propagate(nu, rates)
            mode_next = env.arrivals.step_mode(mode, copy.deepcopy(env._rng))
            obs, reward, _, info = env.step_raw(raw)
            assert np.array_equal(env.state.nu, nu_next)
            assert env.state.lam_mode == mode_next
            assert reward == -small_config.drop_penalty * float(drops)
            assert info["drops"] == float(drops)
            assert np.array_equal(info["arrival_rates"], rates)
            assert np.array_equal(obs[:6], nu_next)

    def test_step_batch_needs_reset_and_geometry(self, small_config):
        envs = _fleet(small_config, 2)
        with pytest.raises(RuntimeError):
            MeanFieldEnv.step_batch(envs, DecisionRule.uniform(6, 2))
        for env in envs:
            env.reset(0)
        with pytest.raises(ValueError):
            MeanFieldEnv.step_batch(envs, DecisionRule.uniform(4, 2))
        with pytest.raises(ValueError):
            MeanFieldEnv.step_batch(envs, [DecisionRule.uniform(6, 2)] * 3)
        with pytest.raises(ValueError):
            MeanFieldEnv.step_raw_batch(envs, np.zeros((2, 5)))

    def test_fleet_equals_single_rows_with_own_streams(self, small_config, rng):
        """Under independent streams a fleet of E equals E single-row
        steps bit for bit, resets included."""
        e = 4
        fleet = _fleet(small_config, e)
        rows = [env.clone() for env in fleet]
        fleet_rngs = [np.random.default_rng(100 + i) for i in range(e)]
        row_rngs = [np.random.default_rng(100 + i) for i in range(e)]
        for i in range(e):
            fleet[i].reset(fleet_rngs[i])
            rows[i].reset(row_rngs[i])
        for _ in range(8):
            raw = rng.normal(0.5, 0.5, size=(e, fleet[0].action_size))
            batched = MeanFieldEnv.step_raw_batch(fleet, raw, fleet_rngs)
            for i in range(e):
                single = MeanFieldEnv.step_raw_batch(
                    [rows[i]], raw[i : i + 1], [row_rngs[i]]
                )
                _assert_same_fleet_step(
                    single,
                    type(batched)(
                        batched.obs[i : i + 1],
                        batched.rewards[i : i + 1],
                        batched.dones[i : i + 1],
                        batched.infos[i : i + 1],
                        batched.next_obs[i : i + 1],
                    ),
                )

    def test_shared_stream_keeps_the_per_environment_draw_order(
        self, small_config, rng
    ):
        """Row i draws its mode step and then, when its episode ends, its
        reset, before row i + 1 draws: the order of stepping the
        environments one at a time on one generator."""
        e = 4
        fleet, loop = _fleet(small_config, e), _fleet(small_config, e)
        shared_a, shared_b = np.random.default_rng(7), np.random.default_rng(7)
        for env in fleet:
            env.reset(shared_a)
        for env in loop:
            env.reset(shared_b)
        for _ in range(9):
            raw = rng.random((e, fleet[0].action_size))
            batched = MeanFieldEnv.step_raw_batch(fleet, raw, [shared_a] * e)
            for i, env in enumerate(loop):
                obs, reward, done, _ = env.step_raw(raw[i])
                assert np.array_equal(batched.obs[i], obs)
                assert batched.rewards[i] == reward
                assert batched.dones[i] == done
                if done:
                    obs = env.reset(shared_b)
                assert np.array_equal(batched.next_obs[i], obs)
        assert shared_a.bit_generator.state == shared_b.bit_generator.state

    def test_rows_with_their_own_propagators(self, small_config, rng):
        """Rows built apart each hold their own propagator; the fleet
        moves them all with the first row's and still equals their
        single-row steps."""
        fleet = [MeanFieldEnv(small_config, seed=i) for i in range(3)]
        rows = [MeanFieldEnv(small_config, seed=i) for i in range(3)]
        for env in fleet + rows:
            env.reset()
        for _ in range(5):
            raw = rng.random((3, fleet[0].action_size))
            batched = MeanFieldEnv.step_raw_batch(fleet, raw)
            for i, env in enumerate(rows):
                obs, reward, _, _ = env.step_raw(raw[i])
                assert np.array_equal(batched.obs[i], obs)
                assert batched.rewards[i] == reward

    def test_rows_must_share_service_rate_and_delta_t(self, small_config):
        """One propagator moves every row, so a row whose service rate
        or Δt differs from the first row's is rejected."""
        for update in ({"service_rate": 2.0}, {"delta_t": 2.0}):
            fleet = [
                MeanFieldEnv(small_config, seed=0),
                MeanFieldEnv(small_config.with_updates(**update), seed=1),
            ]
            for env in fleet:
                env.reset()
            with pytest.raises(ValueError, match="service_rate and delta_t"):
                MeanFieldEnv.step_batch(fleet, DecisionRule.uniform(6, 2))
