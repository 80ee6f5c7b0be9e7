"""Training-determinism harness: golden PPO traces + chunk invariance.

PPO training in this repository is a pure function of the seed: network
initialization, rollout sampling and minibatch shuffling all flow from
one root generator. This module pins that property two ways:

* **Golden training traces** — a tiny fixed-seed PPO run's per-iteration
  loss/KL/value curves (plus a SHA-256 over the final parameters) are
  committed under ``tests/golden/`` and compared exactly, for both the
  scalar and the vectorized collector. Any refactor of the update rule
  or the sampling path that silently changes the training stream fails
  loudly. The hardened-PPO knobs added on top of the paper's update all
  default to *off*; these traces are the proof that off means
  bit-identical, not merely similar. Regenerate intentional changes
  with ``GOLDEN_REGEN=1`` (see ``tests/test_golden_traces.py``).
* **Chunk invariance** — with ``independent_streams=True`` every
  environment of a :class:`~repro.rl.vector_rollout.VectorRolloutCollector`
  owns its spawned generator and its own (batch-1) network forwards, so
  a fleet's batch is the column-interleave of its chunks' batches and
  one PPO update is invariant to how the fleet was chunked across
  collectors (the property that lets the training campaign shard
  collection). Verified property-style over fleet sizes, splits and
  both action heads.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import PPOConfig, SystemConfig
from repro.meanfield.mfc_env import MeanFieldEnv
from repro.rl.distributions import DirichletBlocks
from repro.rl.nn import DirichletPolicyNetwork, GaussianPolicyNetwork, ValueNetwork
from repro.rl.ppo import PPOTrainer
from repro.rl.rollout import RolloutBatch
from repro.rl.vector_rollout import VectorRolloutCollector

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REGEN = os.environ.get("GOLDEN_REGEN") == "1"

_SEED = 20260808
_ITERATIONS = 3

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
    seed=_SEED,
)


def _params_digest(trainer: PPOTrainer) -> str:
    """SHA-256 over every parameter array (order-stable, exact)."""
    h = hashlib.sha256()
    for key in sorted(trainer.state_dict()):
        arr = np.ascontiguousarray(trainer.state_dict()[key])
        h.update(key.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _run_trace(num_envs: int, config: PPOConfig = _PPO) -> dict:
    env = MeanFieldEnv(_SYSTEM, horizon=15, seed=0)
    trainer = PPOTrainer(env, config, seed=_SEED, num_envs=num_envs)
    history = trainer.train(_ITERATIONS)
    fields = (
        "mean_episode_return",
        "policy_loss",
        "value_loss",
        "kl",
        "kl_coeff",
        "entropy",
        "clip_fraction",
        "grad_norm",
        "explained_variance",
    )
    return {
        "curves": {f: [getattr(s, f) for s in history] for f in fields},
        "params_sha256": _params_digest(trainer),
    }


def _build_ppo_trace_scalar() -> dict:
    return _run_trace(num_envs=1)


def _build_ppo_trace_vector() -> dict:
    return _run_trace(num_envs=2)


_BUILDERS = {
    "ppo_training_trace.json": _build_ppo_trace_scalar,
    "ppo_training_trace_vector.json": _build_ppo_trace_vector,
}


@pytest.mark.parametrize("filename", sorted(_BUILDERS))
def test_golden_training_trace_exact(filename):
    """The PPO training stream reproduces the committed trace exactly."""
    path = GOLDEN_DIR / filename
    actual = _BUILDERS[filename]()
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; regenerate with "
            "GOLDEN_REGEN=1 and commit it"
        )
    expected = json.loads(path.read_text())
    assert actual == expected, (
        f"{filename} diverged from the committed reference — the PPO "
        "update or a sampling stream changed. If intentional, regenerate "
        "with GOLDEN_REGEN=1 and commit the new trace."
    )


def test_hardened_knobs_off_is_bit_identical():
    """A config that spells out the defaults of every hardened-PPO knob
    must reproduce the committed trace — i.e. the knobs add *no* code
    path when off, not merely a numerically close one."""
    config = _PPO.with_updates(
        kl_coeff_bounds=None,
        kl_early_stop_factor=None,
        clip_param_final=None,
        clip_decay_iters=None,
        value_clamp_param=None,
    )
    actual = _run_trace(num_envs=1, config=config)
    expected = json.loads((GOLDEN_DIR / "ppo_training_trace.json").read_text())
    assert actual == expected


def test_golden_training_traces_are_nontrivial():
    """Guard the references: curves must show actual training activity."""
    for filename in _BUILDERS:
        trace = json.loads((GOLDEN_DIR / filename).read_text())
        curves = trace["curves"]
        assert len(curves["kl"]) == _ITERATIONS
        assert any(v != 0.0 for v in curves["value_loss"])
        assert any(v != 0.0 for v in curves["grad_norm"])
        assert len(trace["params_sha256"]) == 64


# --------------------------------------------------------------------------
# Chunk invariance of independent-streams collection
# --------------------------------------------------------------------------

_CHUNK_HORIZON = 5  # short episodes: exercises resets + truncation bootstrap
_CHUNK_STEPS = 8  # per-env steps; one episode completes mid-batch


def _make_nets(obs_dim: int, act_dim: int, dirichlet: bool = False):
    if dirichlet:
        head = DirichletBlocks(act_dim // _SYSTEM.d, _SYSTEM.d)
        policy = DirichletPolicyNetwork(
            obs_dim, head, hidden_sizes=(16,), rng=np.random.default_rng(7)
        )
    else:
        policy = GaussianPolicyNetwork(
            obs_dim,
            act_dim,
            hidden_sizes=(16,),
            initial_log_std=-0.5,
            rng=np.random.default_rng(7),
        )
    value = ValueNetwork(obs_dim, hidden_sizes=(16,), rng=np.random.default_rng(8))
    return policy, value


def _interleave_columns(batches: list[RolloutBatch], steps: int) -> RolloutBatch:
    """Column-interleave chunked time-major batches back into fleet order."""

    def merge(name: str) -> np.ndarray:
        parts = []
        for batch in batches:
            arr = getattr(batch, name)
            m = arr.shape[0] // steps
            parts.append(arr.reshape(steps, m, *arr.shape[1:]))
        merged = np.concatenate(parts, axis=1)
        return merged.reshape(-1, *merged.shape[2:])

    return RolloutBatch(
        obs=merge("obs"),
        actions=merge("actions"),
        log_probs=merge("log_probs"),
        rewards=merge("rewards"),
        dones=merge("dones"),
        values=merge("values"),
        advantages=merge("advantages"),
        value_targets=merge("value_targets"),
        episode_returns=[r for b in batches for r in b.episode_returns],
    )


def _collect_chunk(env, policy, value, num, offset, seed) -> RolloutBatch:
    collector = VectorRolloutCollector(
        [env.clone(seed=0) for _ in range(num)],
        policy,
        value,
        gamma=0.99,
        gae_lambda=0.95,
        seed=seed,
        independent_streams=True,
        stream_offset=offset,
    )
    return collector.collect(_CHUNK_STEPS * num)


@settings(max_examples=6, deadline=None)
@given(
    fleet=st.integers(2, 5),
    split=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    dirichlet=st.booleans(),
)
@example(fleet=4, split=1, seed=11, dirichlet=False)
@example(fleet=4, split=1, seed=11, dirichlet=True)
def test_collection_is_chunk_invariant(fleet, split, seed, dirichlet):
    """A fleet's batch equals the column-interleave of its chunks' batches,
    bit for bit — every column is a pure function of (networks, seed,
    global env index), independent of fleet size and of the action head."""
    split = min(split, fleet - 1)
    env = MeanFieldEnv(_SYSTEM, horizon=_CHUNK_HORIZON, seed=0)
    policy, value = _make_nets(env.observation_size, env.action_size, dirichlet)
    full = _collect_chunk(env, policy, value, fleet, 0, seed)
    left = _collect_chunk(env, policy, value, split, 0, seed)
    right = _collect_chunk(env, policy, value, fleet - split, split, seed)
    merged = _interleave_columns([left, right], _CHUNK_STEPS)
    fields = (
        "obs",
        "actions",
        "log_probs",
        "rewards",
        "dones",
        "values",
        "advantages",
        "value_targets",
    )
    for name in fields:
        assert np.array_equal(getattr(full, name), getattr(merged, name)), name
    assert sorted(full.episode_returns) == sorted(merged.episode_returns)


class _StubCollector:
    """Replays a pre-collected batch through ``PPOTrainer.train_iteration``."""

    def __init__(self, batch: RolloutBatch) -> None:
        self._batch = batch
        self.total_env_steps = 0

    def collect(self, batch_size: int) -> RolloutBatch:
        assert batch_size == len(self._batch)
        self.total_env_steps += batch_size
        return self._batch


@pytest.mark.parametrize("split", [1, 2, 3])
def test_one_ppo_update_is_chunk_invariant(split):
    """One PPO update on a fleet-collected batch is bit-identical to the
    update on the same fleet collected as two chunks and re-interleaved —
    the property that lets a campaign shard collection across workers."""
    fleet = 4
    config = _PPO.with_updates(
        train_batch_size=fleet * _CHUNK_STEPS, minibatch_size=16
    )
    env = MeanFieldEnv(_SYSTEM, horizon=_CHUNK_HORIZON, seed=0)
    trainer_full = PPOTrainer(
        env.clone(seed=0), config, seed=_SEED, num_envs=fleet,
        independent_streams=True,
    )
    trainer_chunk = PPOTrainer(
        env.clone(seed=0), config, seed=_SEED, num_envs=fleet,
        independent_streams=True,
    )
    # Same seed -> bit-identical initial parameters; collection below does
    # not mutate them, so batches built with either trainer's nets agree.
    for key, arr in trainer_full.state_dict().items():
        assert np.array_equal(arr, trainer_chunk.state_dict()[key])

    policy, value = trainer_full.policy, trainer_full.value
    full = _collect_chunk(env, policy, value, fleet, 0, seed=123)
    merged = _interleave_columns(
        [
            _collect_chunk(env, policy, value, split, 0, seed=123),
            _collect_chunk(env, policy, value, fleet - split, split, seed=123),
        ],
        _CHUNK_STEPS,
    )
    trainer_full.collector = _StubCollector(full)
    trainer_chunk.collector = _StubCollector(merged)
    stats_full = trainer_full.train_iteration()
    stats_chunk = trainer_chunk.train_iteration()
    assert stats_full.policy_loss == stats_chunk.policy_loss
    assert stats_full.value_loss == stats_chunk.value_loss
    assert stats_full.kl == stats_chunk.kl
    for key, arr in trainer_full.state_dict().items():
        assert np.array_equal(arr, trainer_chunk.state_dict()[key]), key
