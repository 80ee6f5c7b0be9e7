"""Deterministic random-number management.

Monte-Carlo experiments in this repository follow one discipline: every
stochastic component receives its own :class:`numpy.random.Generator`,
derived from a single root seed through NumPy's ``SeedSequence`` spawning
mechanism. This makes runs reproducible bit-for-bit while keeping
independent components statistically independent — re-seeding with the
same root always yields the same experiment, and adding a new consumer
never perturbs the streams of existing ones (as long as spawn order is
stable).
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator", "spawn_generators"]

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(seed: int | np.random.Generator | np.random.SeedSequence | None) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    Accepts an existing generator (returned unchanged), an integer seed,
    a ``SeedSequence`` or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(
    seed: int | np.random.Generator | np.random.SeedSequence | None,
    count: int,
) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one root seed.

    If ``seed`` is already a generator, children are derived from its
    bit generator's seed sequence when available, else from integers it
    draws (still deterministic given the generator's state).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        seed_seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if seed_seq is None:  # pragma: no cover - exotic bit generators
            return [as_generator(int(seed.integers(2**63))) for _ in range(count)]
        return [np.random.default_rng(s) for s in seed_seq.spawn(count)]
    if isinstance(seed, np.random.SeedSequence):
        return [np.random.default_rng(s) for s in seed.spawn(count)]
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(count)]
