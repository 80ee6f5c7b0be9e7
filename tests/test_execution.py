"""Tests for the consolidated execution knobs (`repro.execution`).

``context=ExecutionContext(...)`` is the one way to pass
workers/store/sim_backend/max_batch_replicas to an entry point; the
individual keyword arguments of earlier releases are gone and raise a
``TypeError``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.execution import ExecutionContext
from repro.store import ExperimentStore


class TestExecutionContext:
    def test_defaults(self):
        ctx = ExecutionContext()
        assert ctx.workers == 1
        assert ctx.store is None
        assert ctx.sim_backend == "numpy"
        assert ctx.max_batch_replicas is None
        assert ctx.resolved_max_batch_replicas() == 64
        assert ctx.resolved_max_batch_replicas(8) == 8

    def test_explicit_chunk_size_wins_over_callee_default(self):
        ctx = ExecutionContext(max_batch_replicas=16)
        assert ctx.resolved_max_batch_replicas(8) == 16

    def test_is_frozen_and_validated(self):
        ctx = ExecutionContext()
        with pytest.raises(AttributeError):
            ctx.workers = 4
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=0)
        with pytest.raises(ValueError, match="max_batch_replicas"):
            ExecutionContext(max_batch_replicas=0)
        with pytest.raises(ValueError, match="sim_backend"):
            ExecutionContext(sim_backend="fortran")

    def test_auto_backend_is_accepted(self):
        assert ExecutionContext(sim_backend="auto").sim_backend == "auto"


def _tiny_sweep():
    from repro.config import paper_system_config
    from repro.experiments.runner import policy_suite

    config = paper_system_config(num_queues=8).with_updates(
        episode_length=4, monte_carlo_runs=2
    )
    return config, policy_suite(config)["RND"]


class TestResolver:
    """How entry points resolve their execution context."""

    def test_no_arguments_yields_defaults(self):
        from repro.experiments.runner import evaluate_policy_finite

        config, policy = _tiny_sweep()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not warn
            default = evaluate_policy_finite(config, policy, seed=3)
        explicit = evaluate_policy_finite(
            config, policy, seed=3, context=ExecutionContext()
        )
        np.testing.assert_array_equal(default.drops, explicit.drops)

    def test_context_passes_through_untouched(self):
        from repro.serving.engine import run_stream_scenario

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_stream_scenario(
                "flash-crowd",
                horizon=4,
                num_replicas=1,
                num_queues=10,
                context=ExecutionContext(workers=3),
            )
        assert result.workers == 3

    def test_mixing_context_and_legacy_is_an_error(self):
        from repro.scenarios import run_scenario

        with pytest.raises(TypeError, match="workers"):
            run_scenario("paper-baseline", workers=2, context=ExecutionContext())

    def test_store_dir_opens_a_store(self, tmp_path):
        from repro.experiments.cli import _execution_context, build_parser

        args = build_parser().parse_args(
            ["fig5", "--store-dir", str(tmp_path / "cache")]
        )
        ctx = _execution_context(args)
        assert isinstance(ctx.store, ExperimentStore)
        assert (tmp_path / "cache").is_dir()


class TestEntryPointThreading:
    """The harness entry points accept context= without warning and
    reject the removed individual keywords."""

    def test_sweep_executor_rejects_mixed_styles(self):
        from repro.experiments.parallel import SweepExecutor

        with pytest.raises(TypeError, match="not both"):
            SweepExecutor(workers=2, context=ExecutionContext(workers=2))

    def test_sweep_executor_reads_context(self, tmp_path):
        from repro.experiments.parallel import SweepExecutor

        store = ExperimentStore(tmp_path / "cache")
        executor = SweepExecutor(
            context=ExecutionContext(workers=2, store=store)
        )
        assert executor.workers == 2
        assert executor.store is store

    def test_evaluate_policy_finite_accepts_context(self):
        from repro.config import paper_system_config
        from repro.experiments.runner import (
            evaluate_policy_finite,
            policy_suite,
        )

        config = paper_system_config(num_queues=8).with_updates(
            episode_length=4, monte_carlo_runs=2
        )
        policy = policy_suite(config)["RND"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evaluate_policy_finite(
                config, policy, context=ExecutionContext()
            )
        assert result.drops.shape == (2,)

    def test_evaluate_policy_finite_rejects_mixed_styles(self):
        from repro.config import paper_system_config
        from repro.experiments.runner import (
            evaluate_policy_finite,
            policy_suite,
        )

        config = paper_system_config(num_queues=8)
        policy = policy_suite(config)["RND"]
        with pytest.raises(TypeError, match="workers"):
            evaluate_policy_finite(
                config, policy, workers=2, context=ExecutionContext()
            )

    @pytest.mark.parametrize(
        "entry_point, removed",
        [
            ("evaluate_policy_finite", ("backend", "max_batch_replicas",
                                        "workers", "store", "sim_backend")),
            ("run_fig4", ("workers", "store", "sim_backend")),
            ("run_fig5", ("workers", "store", "sim_backend")),
            ("run_fig6", ("workers", "store", "sim_backend")),
            ("run_scenario", ("workers", "store", "sim_backend")),
            ("run_stream_scenario", ("workers", "store", "sim_backend")),
            ("run_stream_request", ("workers", "store")),
        ],
    )
    def test_removed_keywords_are_gone(self, entry_point, removed):
        import inspect

        from repro.experiments.fig4_convergence import run_fig4
        from repro.experiments.fig5_delay_sweep import run_fig5
        from repro.experiments.fig6_small_n import run_fig6
        from repro.experiments.runner import evaluate_policy_finite
        from repro.scenarios.run import run_scenario
        from repro.serving.engine import run_stream_request, run_stream_scenario

        fn = {
            f.__name__: f
            for f in (
                evaluate_policy_finite, run_fig4, run_fig5, run_fig6,
                run_scenario, run_stream_scenario, run_stream_request,
            )
        }[entry_point]
        params = inspect.signature(fn).parameters
        assert "context" in params
        assert not set(removed) & set(params)
