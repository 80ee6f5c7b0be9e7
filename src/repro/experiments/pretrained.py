"""Registry of trained "MF" policies, one per synchronization delay.

The paper trains a separate PPO policy for every ``Δt`` (Section 4,
Figure 5: "we have trained a separate MF policy for each of the Δt").
This registry resolves the MF policy for a delay in three steps:

1. a packaged PPO checkpoint ``repro/assets/policies/mf_dt{Δt}.npz``
   produced by ``scripts/pretrain_policies.py``,
2. else (``allow_fallback=True``) a CEM-optimized constant decision rule
   computed on the fly on the mean-field MDP (seconds, deterministic
   given the seed) and cached for the process lifetime,
3. else a :class:`FileNotFoundError`.

The fallback keeps every figure bench runnable from a cold checkout; the
benches report which variant was used.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.assets import POLICY_DIR
from repro.config import SystemConfig, paper_system_config

if TYPE_CHECKING:
    from repro.policies.base import UpperLevelPolicy

__all__ = ["checkpoint_path", "get_mf_policy"]

_FALLBACK_CACHE: dict[tuple, "UpperLevelPolicy"] = {}


def checkpoint_path(delta_t: float, directory: Path | None = None) -> Path:
    """Canonical checkpoint location for a given delay."""
    base = directory if directory is not None else POLICY_DIR
    return base / f"mf_dt{delta_t:g}.npz"


def _cem_fallback(
    config: SystemConfig,
    seed: int,
    generations: int,
    population: int,
) -> "UpperLevelPolicy":
    from repro.meanfield.mfc_env import MeanFieldEnv
    from repro.rl.cem import optimize_constant_rule

    horizon = config.resolved_eval_length()
    env = MeanFieldEnv(config, horizon=horizon, seed=seed)
    result = optimize_constant_rule(
        env,
        generations=generations,
        population=population,
        episodes_per_candidate=2,
        seed=seed,
    )
    policy = result.policy
    policy._name = "MF"  # presented as the learned MF policy stand-in
    return policy


def get_mf_policy(
    delta_t: float,
    config: SystemConfig | None = None,
    allow_fallback: bool = True,
    seed: int = 0,
    fallback_generations: int = 12,
    fallback_population: int = 24,
    directory: Path | None = None,
) -> tuple["UpperLevelPolicy", str]:
    """Resolve the MF policy for ``delta_t``.

    Returns ``(policy, source)`` with ``source`` one of ``"checkpoint"``
    or ``"cem-fallback"``.
    """
    from repro.policies.learned import NeuralPolicy

    path = checkpoint_path(delta_t, directory)
    if path.exists():
        return NeuralPolicy.load(path), "checkpoint"
    if not allow_fallback:
        raise FileNotFoundError(
            f"no pretrained MF policy for Δt={delta_t:g} at {path}; run "
            "scripts/pretrain_policies.py or pass allow_fallback=True"
        )
    cfg = (
        config
        if config is not None
        else paper_system_config(delta_t=delta_t, num_queues=100)
    )
    if cfg.delta_t != delta_t:
        cfg = cfg.with_updates(delta_t=delta_t)
    key = (
        delta_t,
        cfg.buffer_size,
        cfg.d,
        cfg.arrival_levels,
        seed,
        fallback_generations,
        fallback_population,
    )
    if key not in _FALLBACK_CACHE:
        _FALLBACK_CACHE[key] = _cem_fallback(
            cfg, seed, fallback_generations, fallback_population
        )
    return _FALLBACK_CACHE[key], "cem-fallback"
