"""Shared fixtures for the test suite.

Most tests run on a deliberately small system (short buffers, few
queues/clients, short horizons) so the whole suite stays fast while
still exercising every code path of the full-scale system.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.config import PPOConfig, SystemConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> SystemConfig:
    """Paper parameters at toy scale (fast simulation)."""
    return SystemConfig(
        num_clients=400,
        num_queues=20,
        buffer_size=5,
        d=2,
        service_rate=1.0,
        arrival_rate_high=0.9,
        arrival_rate_low=0.6,
        p_high_to_low=0.2,
        p_low_to_high=0.5,
        delta_t=1.0,
        episode_length=50,
        monte_carlo_runs=3,
    )


@pytest.fixture
def tiny_config() -> SystemConfig:
    """Minimal geometry: B=2, d=2, a handful of queues."""
    return SystemConfig(
        num_clients=64,
        num_queues=8,
        buffer_size=2,
        d=2,
        delta_t=0.5,
        episode_length=20,
        monte_carlo_runs=2,
    )


@pytest.fixture
def fast_ppo_config() -> PPOConfig:
    """PPO config small enough for CI-speed training tests."""
    return PPOConfig(
        learning_rate=1e-3,
        train_batch_size=256,
        minibatch_size=64,
        num_epochs=3,
        hidden_sizes=(32, 32),
        initial_log_std=-0.5,
    )


@pytest.fixture
def full_disk(monkeypatch):
    """Every experiment-store file write fails as it would on a full disk."""

    def write(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.store.store.save_npz_checkpoint", write)
