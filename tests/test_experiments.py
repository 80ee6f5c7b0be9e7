"""Tests for the experiment harness (tables, runner, figure modules)."""

import math

import numpy as np
import pytest

from repro.config import paper_system_config
from repro.execution import ExecutionContext
from repro.experiments.fig3_training import run_fig3
from repro.experiments.fig4_convergence import run_fig4
from repro.experiments.fig5_delay_sweep import run_fig5
from repro.experiments.fig6_small_n import run_fig6
from repro.experiments.pretrained import checkpoint_path, get_mf_policy
from repro.experiments.runner import evaluate_policy_finite, policy_suite
from repro.experiments.tables import (
    render_table1,
    render_table2,
    table1_matches_config,
    table2_matches_config,
)
from repro.policies.static import RandomPolicy
from repro.scenarios import run_scenario
from repro.store.store import ExperimentStore
from repro.utils.stats import mean_confidence_interval


class TestTables:
    def test_table1_rendering_contains_all_symbols(self):
        text = render_table1()
        for symbol in ("Δt", "α", "N", "M", "d", "B", "T"):
            assert symbol in text

    def test_table2_rendering_contains_values(self):
        text = render_table2()
        for value in ("0.99", "0.2", "0.3", "0.00005", "4000", "128", "30"):
            assert value in text

    def test_table1_default_config_matches_paper(self):
        checks = table1_matches_config()
        assert all(checks.values()), {k: v for k, v in checks.items() if not v}

    def test_table2_default_config_matches_paper(self):
        checks = table2_matches_config()
        assert all(checks.values()), {k: v for k, v in checks.items() if not v}


class TestRunner:
    def test_evaluate_policy_finite(self, small_config):
        result = evaluate_policy_finite(
            small_config, RandomPolicy(6, 2), num_runs=3, num_epochs=10, seed=0
        )
        assert result.drops.shape == (3,)
        assert result.interval.n == 3
        assert result.mean_drops >= 0
        assert result.policy_name == "RND"

    def test_interval_is_built_on_first_read(self):
        """A sweep builds no interval: means and winners read ``drops``.
        The first ``interval`` is the one ``mean_confidence_interval``
        gives, around the same mean."""
        sweep = run_scenario(
            "paper-baseline", delta_ts=(1.0, 5.0), num_queues=10, num_runs=3
        )
        results = [r for series in sweep.results.values() for r in series]
        sweep.mean_series("RND")
        sweep.winner_at(5.0)
        means = [r.mean_drops for r in results]
        assert all("interval" not in vars(r) for r in results)
        for result, mean in zip(results, means):
            interval = result.interval
            assert interval == mean_confidence_interval(result.drops)
            assert mean == interval.mean
            assert result.interval is interval

    def test_policy_suite_contents(self, small_config):
        suite = policy_suite(small_config, mf_policy=RandomPolicy(6, 2))
        assert list(suite) == ["MF", "JSQ(2)", "RND"]
        suite_no_mf = policy_suite(small_config)
        assert list(suite_no_mf) == ["JSQ(2)", "RND"]

    def test_runner_reproducible(self, small_config):
        a = evaluate_policy_finite(
            small_config, RandomPolicy(6, 2), num_runs=2, num_epochs=5, seed=9
        )
        b = evaluate_policy_finite(
            small_config, RandomPolicy(6, 2), num_runs=2, num_epochs=5, seed=9
        )
        assert np.allclose(a.drops, b.drops)


class TestPretrainedRegistry:
    def test_checkpoint_path_format(self, tmp_path):
        assert checkpoint_path(5.0, tmp_path).name == "mf_dt5.npz"
        assert checkpoint_path(2.5, tmp_path).name == "mf_dt2.5.npz"

    def test_packaged_checkpoints_exist(self):
        """The repo ships pretrained policies for all paper delays."""
        for dt in (1.0, 3.0, 5.0, 7.0, 10.0):
            assert checkpoint_path(dt).exists(), (
                f"missing packaged checkpoint for Δt={dt}"
            )

    def test_get_policy_from_checkpoint(self):
        policy, source = get_mf_policy(5.0)
        assert source == "checkpoint"
        rule = policy.decision_rule(np.full(6, 1 / 6), 0)
        assert np.allclose(rule.probs.sum(axis=-1), 1.0)

    def test_missing_without_fallback_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            get_mf_policy(123.0, allow_fallback=False, directory=tmp_path)

    def test_cem_fallback_used_and_cached(self, tmp_path):
        cfg = paper_system_config(delta_t=2.5, num_queues=20).with_updates(
            eval_episode_length=20
        )
        policy, source = get_mf_policy(
            2.5,
            config=cfg,
            directory=tmp_path,
            fallback_generations=1,
            fallback_population=4,
            seed=1,
        )
        assert source == "cem-fallback"
        assert policy.name == "MF"
        again, _ = get_mf_policy(
            2.5,
            config=cfg,
            directory=tmp_path,
            fallback_generations=1,
            fallback_population=4,
            seed=1,
        )
        assert again is policy  # process-level cache hit


class TestFigureModules:
    def test_fig3_tiny_run(self):
        from repro.config import PPOConfig

        ppo = PPOConfig(
            learning_rate=1e-3,
            train_batch_size=120,
            minibatch_size=60,
            num_epochs=2,
            hidden_sizes=(16,),
        )
        result = run_fig3(
            delta_t=5.0,
            iterations=2,
            horizon=20,
            ppo_config=ppo,
            baseline_episodes=4,
            seed=0,
        )
        assert len(result.env_steps) == 2
        assert "MF-RND" in result.baseline_returns
        assert "MF-JSQ(2)" in result.baseline_returns
        assert np.isfinite(result.final_return)
        csv = result.to_csv()
        assert csv.splitlines()[0] == "env_steps,mean_episode_return"
        assert "Figure 3" in result.format_table()

    def test_fig4_tiny_run(self):
        result = run_fig4(
            delta_t=5.0,
            m_grid=(10, 30),
            num_runs=2,
            policy=RandomPolicy(6, 2),
            mf_eval_episodes=4,
            seed=0,
        )
        assert result.m_grid == (10, 30)
        assert result.n_values == (100, 900)
        assert len(result.results) == 2
        assert np.isfinite(result.mean_field_value)
        assert result.gaps().shape == (2,)
        assert "mf_value" in result.to_csv()
        assert "Figure 4" in result.format_table()

    def test_fig5_tiny_run(self):
        result = run_fig5(
            num_queues=10,
            delta_ts=(5.0, 10.0),
            num_runs=2,
            seed=0,
        )
        assert set(result.results) == {"MF", "JSQ(2)", "RND"}
        assert len(result.results["MF"]) == 2
        assert result.winner_at(5.0) in ("MF", "JSQ(2)", "RND")
        assert result.mean_series("RND").shape == (2,)
        assert "delta_t" in result.to_csv()

    def test_fig6_tiny_run(self):
        result = run_fig6(
            num_queues=10,
            delta_ts=(5.0,),
            num_runs=2,
            seed=0,
        )
        assert result.panel_a.num_clients_rule == "M"
        assert result.panel_b.num_clients_rule == "M/2"
        assert "panel (a)" in result.to_csv()
        # N values actually differ between panels
        cfg_a = result.panel_a.results["RND"][0].config
        cfg_b = result.panel_b.results["RND"][0].config
        assert cfg_a.num_clients == 10
        assert cfg_b.num_clients == 5


class TestFigureSweeps:
    """Figures 5 and 6 run as the ``paper-baseline`` scenario's sweep."""

    @pytest.mark.parametrize(
        "runner, kwargs, num_requests",
        [
            (
                run_fig4,
                dict(
                    delta_t=5.0, m_grid=(10, 20), policy=RandomPolicy(6, 2),
                    mf_eval_episodes=2,
                ),
                2,  # one per M
            ),
            (run_fig5, dict(num_queues=10, delta_ts=(5.0,)), 3),  # 3 policies
            (run_fig6, dict(num_queues=10, delta_ts=(5.0,)), 6),  # 2 panels
        ],
        ids=["fig4", "fig5", "fig6"],
    )
    def test_context_chunk_size_sets_shard_count(
        self, tmp_path, runner, kwargs, num_requests
    ):
        store = ExperimentStore(tmp_path / "store")
        runner(
            num_runs=3,
            seed=0,
            context=ExecutionContext(store=store, max_batch_replicas=2),
            **kwargs,
        )
        assert store.stats.writes == num_requests * math.ceil(3 / 2)
        assert len(store) == store.stats.writes

    def test_fig5_then_paper_baseline_is_all_hits(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        ctx = ExecutionContext(store=store)
        kwargs = dict(num_queues=10, delta_ts=(1.0, 5.0), num_runs=3, seed=0)
        panel = run_fig5(context=ctx, **kwargs)
        before = store.stats.snapshot()
        scenario = run_scenario("paper-baseline", context=ctx, **kwargs)
        delta = store.stats.since(before)
        assert (delta.hits, delta.misses, delta.writes) == (6, 0, 0)
        assert list(scenario.results) == list(panel.results)
        for name, series in panel.results.items():
            for a, b in zip(series, scenario.results[name]):
                assert np.array_equal(a.drops, b.drops)
        assert scenario.to_csv() == panel.to_csv()

    def test_fig5_mf_policy_follows_seed_without_checkpoint(self):
        """At Δt = 2 (no packaged checkpoint) the MF cell is the CEM
        stand-in for the panel's seed; the registered scenario's own
        suite uses seed 0."""
        result = run_fig5(num_queues=10, delta_ts=(2.0,), num_runs=2, seed=3)
        policy, source = get_mf_policy(2.0, seed=3)
        assert source == "cem-fallback"
        mf = result.results["MF"][0]
        expected = evaluate_policy_finite(
            mf.config, policy, num_runs=2, num_epochs=250, seed=3,
            env_kwargs={"per_packet_randomization": True},
        )
        assert np.array_equal(mf.drops, expected.drops)
