"""Tests for the sharded sweep orchestrator (determinism above all).

The contract under test: merged Monte-Carlo statistics are a pure
function of the master seed and the replica-chunk layout — never of the
worker count, the process topology, or shard completion order.
"""

import numpy as np
import pytest

from repro.execution import ExecutionContext
from repro.experiments.parallel import (
    EvalRequest,
    SweepExecutor,
    _decompose,
)
from repro.experiments.runner import evaluate_policy_finite
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.batched_env import (
    BatchedFiniteSystemEnv,
    run_episodes_batched,
)
from repro.queueing.heterogeneous import (
    BatchedHeterogeneousFiniteEnv,
    ServerClassSpec,
    sed_policy_suite,
)
from repro.utils.rng import spawn_seeds


@pytest.fixture
def jsq(small_config):
    return JoinShortestQueuePolicy(small_config.num_queue_states, small_config.d)


def _request(config, policy, **overrides):
    base = dict(
        config=config,
        policy=policy,
        num_runs=6,
        num_epochs=4,
        seed=7,
        max_batch_replicas=2,
    )
    base.update(overrides)
    return EvalRequest(**base)


class TestEvalRequest:
    def test_backend_validated(self, small_config, jsq):
        with pytest.raises(ValueError):
            _request(small_config, jsq, sim_backend="gpu")

    def test_chunk_size_validated(self, small_config, jsq):
        with pytest.raises(ValueError):
            _request(small_config, jsq, max_batch_replicas=0)

    def test_runs_validated(self, small_config, jsq):
        with pytest.raises(ValueError):
            _request(small_config, jsq, num_runs=0)

    def test_runs_default_from_config(self, small_config, jsq):
        req = _request(small_config, jsq, num_runs=None)
        assert req.resolved_runs() == small_config.monte_carlo_runs

    def test_env_cls_must_be_batched(self, small_config, jsq):
        # Any batched env subclass is accepted...
        request = _request(
            small_config, jsq, env_cls=BatchedHeterogeneousFiniteEnv
        )
        assert request.env_cls is BatchedHeterogeneousFiniteEnv

        # ...anything else fails at construction, naming the class,
        # instead of inside a worker.
        class SingleQueueSystem:
            pass

        with pytest.raises(ValueError, match="SingleQueueSystem"):
            _request(small_config, jsq, env_cls=SingleQueueSystem)
        with pytest.raises(ValueError, match="batched environment class"):
            _request(small_config, jsq, env_cls=BatchedFiniteSystemEnv(
                small_config, num_replicas=1
            ))


class TestDecomposition:
    def test_shard_layout_matches_serial_chunking(self, small_config, jsq):
        shards = _decompose([_request(small_config, jsq)])  # 6 runs, chunk 2
        assert [(s.offset, s.num_runs) for s in shards] == [
            (0, 2), (2, 2), (4, 2),
        ]
        assert all(len(s.seeds) == 1 for s in shards)  # one per chunk

    def test_layout_independent_of_worker_count(self, small_config, jsq):
        # Decomposition never consults the executor, only the request.
        reqs = [_request(small_config, jsq), _request(small_config, jsq)]
        shards = _decompose(reqs)
        assert [s.request_index for s in shards] == [0, 0, 0, 1, 1, 1]


class TestDeterminism:
    def test_workers_do_not_change_results(self, small_config, jsq):
        req = _request(small_config, jsq)
        baseline = SweepExecutor(workers=1).run([req])[0]
        for workers in (2, 4):
            result = SweepExecutor(workers=workers).run([req])[0]
            assert np.array_equal(baseline.drops, result.drops)
            assert baseline.interval == result.interval

    def test_sharded_matches_serial_batched(self, small_config, jsq):
        serial = evaluate_policy_finite(
            small_config, jsq, num_runs=6, num_epochs=4, seed=7,
            context=ExecutionContext(max_batch_replicas=2),
        )
        sharded = SweepExecutor(workers=2).run([_request(small_config, jsq)])[0]
        assert np.array_equal(serial.drops, sharded.drops)

    def test_scalar_batched_sharded_triple_identity(self, small_config, jsq):
        """Same master seed ⇒ identical results across three ways to run
        single-system (E = 1) replicas: one environment per spawned
        seed, in-process unit chunks, and a process pool."""
        children = spawn_seeds(3, 4)
        scalar = np.concatenate(
            [
                run_episodes_batched(
                    BatchedFiniteSystemEnv(
                        small_config,
                        num_replicas=1,
                        seed=np.random.default_rng(child),
                    ),
                    jsq,
                    num_epochs=4,
                ).total_drops_per_queue
                for child in children
            ]
        )
        batched = evaluate_policy_finite(
            small_config, jsq, num_runs=4, num_epochs=4, seed=3,
            context=ExecutionContext(max_batch_replicas=1),
        )
        sharded = SweepExecutor(workers=2).run(
            [_request(small_config, jsq, num_runs=4, seed=3,
                      max_batch_replicas=1)]
        )[0]
        assert np.array_equal(scalar, batched.drops)
        assert np.array_equal(scalar, sharded.drops)

    def test_evaluate_policy_finite_workers_param(self, small_config, jsq):
        serial = evaluate_policy_finite(
            small_config, jsq, num_runs=6, num_epochs=4, seed=7,
            context=ExecutionContext(max_batch_replicas=2),
        )
        pooled = evaluate_policy_finite(
            small_config, jsq, num_runs=6, num_epochs=4, seed=7,
            context=ExecutionContext(max_batch_replicas=2, workers=2),
        )
        assert np.array_equal(serial.drops, pooled.drops)

    def test_multi_request_merge_order(self, small_config):
        jsq = JoinShortestQueuePolicy(
            small_config.num_queue_states, small_config.d
        )
        rnd = RandomPolicy(small_config.num_queue_states, small_config.d)
        requests = [
            _request(small_config, jsq),
            _request(small_config, rnd, num_runs=4),
        ]
        merged = SweepExecutor(workers=2).run(requests)
        assert [r.policy_name for r in merged] == ["JSQ(2)", "RND"]
        assert merged[0].drops.shape == (6,)
        assert merged[1].drops.shape == (4,)
        for req, res in zip(requests, merged):
            serial = evaluate_policy_finite(
                req.config, req.policy, num_runs=req.num_runs,
                num_epochs=req.num_epochs, seed=req.seed,
                context=ExecutionContext(
                    max_batch_replicas=req.max_batch_replicas
                ),
            )
            assert np.array_equal(serial.drops, res.drops)

    def test_heterogeneous_env_cls_through_pool(self, small_config):
        spec = ServerClassSpec((0.5, 2.0), (0.5, 0.5))
        sed = sed_policy_suite(
            spec, small_config.buffer_size, small_config.d
        )[f"SED({small_config.d})"]
        kwargs = dict(
            num_runs=4, num_epochs=4, seed=5,
            env_cls=BatchedHeterogeneousFiniteEnv,
            env_kwargs={"spec": spec},
        )
        serial = evaluate_policy_finite(
            small_config, sed,
            context=ExecutionContext(max_batch_replicas=2), **kwargs
        )
        pooled = evaluate_policy_finite(
            small_config, sed,
            context=ExecutionContext(max_batch_replicas=2, workers=2),
            **kwargs,
        )
        assert np.array_equal(serial.drops, pooled.drops)


class TestExecutor:
    def test_workers_validated(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)

    def test_default_workers_is_cpu_count(self):
        import os

        assert SweepExecutor().workers == (os.cpu_count() or 1)

    def test_worker_exception_propagates(self, small_config, jsq):
        bad = _request(
            small_config, jsq, env_kwargs={"no_such_option": True}
        )
        with pytest.raises(TypeError):
            SweepExecutor(workers=2).run([bad])

    def test_run_drops_returns_raw_arrays(self, small_config, jsq):
        drops = SweepExecutor(workers=1).run_drops(
            [_request(small_config, jsq)]
        )
        assert len(drops) == 1
        assert drops[0].shape == (6,)


class TestClaimedExecution:
    def test_two_thread_claimants_match_single_host(
        self, small_config, jsq, tmp_path
    ):
        """Two claim-mode executors racing on one store (threads as an
        in-process stand-in for hosts) both merge bit-identically to a
        plain single-executor run, and together compute each of the 3
        shards exactly once."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.store.store import ExperimentStore

        requests = [_request(small_config, jsq)]
        single = SweepExecutor(workers=1).run_drops(requests)
        store = ExperimentStore(tmp_path / "store")

        def claimant(owner):
            executor = SweepExecutor(
                workers=1, store=store, claim=True, claim_owner=owner
            )
            return executor.run_drops(requests)

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(claimant, f"node-{i}") for i in (0, 1)]
            merged = [f.result() for f in futures]
        for node in merged:
            np.testing.assert_array_equal(node[0], single[0])
        assert store.stats.writes == 3

    def test_execution_context_carries_claim_flags(
        self, small_config, jsq, tmp_path
    ):
        from repro.execution import ExecutionContext
        from repro.store.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        context = ExecutionContext(workers=1, store=store, claim=True)
        executor = SweepExecutor(context=context)
        assert executor.claim and executor.store is store
        claimed = executor.run_drops([_request(small_config, jsq)])
        plain = SweepExecutor(workers=1).run_drops(
            [_request(small_config, jsq)]
        )
        np.testing.assert_array_equal(claimed[0], plain[0])

    def test_context_validates_claim_flags(self, tmp_path):
        from repro.execution import ExecutionContext
        from repro.store.store import ExperimentStore

        with pytest.raises(ValueError, match="mutually exclusive"):
            ExecutionContext(
                store=ExperimentStore(tmp_path / "s"),
                claim=True,
                merge_only=True,
            )
        with pytest.raises(ValueError, match="experiment store"):
            ExecutionContext(claim=True)


class TestFigureWorkers:
    def test_fig5_workers_invariant(self, small_config):
        from repro.experiments.fig5_delay_sweep import run_fig5

        kwargs = dict(
            num_queues=10,
            delta_ts=(5.0,),
            num_runs=3,
            seed=0,
        )
        serial = run_fig5(context=ExecutionContext(workers=1), **kwargs)
        pooled = run_fig5(context=ExecutionContext(workers=2), **kwargs)
        for name in serial.results:
            for a, b in zip(serial.results[name], pooled.results[name]):
                assert np.array_equal(a.drops, b.drops)

    def test_fig4_workers_invariant(self):
        from repro.experiments.fig4_convergence import run_fig4

        kwargs = dict(
            delta_t=5.0,
            m_grid=(10, 20),
            num_runs=2,
            policy=RandomPolicy(6, 2),
            mf_eval_episodes=2,
            seed=0,
        )
        serial = run_fig4(context=ExecutionContext(workers=1), **kwargs)
        pooled = run_fig4(context=ExecutionContext(workers=2), **kwargs)
        for a, b in zip(serial.results, pooled.results):
            assert np.array_equal(a.drops, b.drops)
        assert serial.mean_field_value == pooled.mean_field_value
