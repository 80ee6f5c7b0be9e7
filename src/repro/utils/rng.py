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

__all__ = ["as_generator", "spawn_generators", "spawn_seeds"]

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


def spawn_seeds(
    seed: int | np.random.Generator | np.random.SeedSequence | None,
    count: int,
) -> list[np.random.SeedSequence | int]:
    """Picklable seed material for ``count`` independent children of ``seed``.

    ``SeedSequence`` children of the root's sequence; a generator without
    a retrievable seed sequence yields integers it draws instead (still
    deterministic given the generator's state). Each child seeds one
    ``np.random.default_rng``.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        seed_seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if seed_seq is None:  # pragma: no cover - exotic bit generators
            return [int(seed.integers(2**63)) for _ in range(count)]
        return list(seed_seq.spawn(count))
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(count))
    return list(np.random.SeedSequence(seed).spawn(count))


def spawn_generators(
    seed: int | np.random.Generator | np.random.SeedSequence | None,
    count: int,
) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one root seed
    (one per :func:`spawn_seeds` child)."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]
