"""Lower-level decision rules ``h : Z^d -> P(U)`` — the MFC action space.

A decision rule tells an agent that sampled ``d`` queues with (anonymous)
states ``z̄ = (z̄_1, ..., z̄_d)`` with which probability to route its jobs
to each of the ``d`` sampled queues. The paper's upper-level policy
``π̃(ν_t, λ_t)`` emits one such rule per decision epoch (Eq. 30); the
static baselines MF-JSQ (Eq. 34) and MF-RND (Eq. 35) are fixed rules.

The rule is stored densely as an array of shape ``(S,)*d + (d,)`` with
``S = B + 1`` queue states; entry ``probs[z̄_1, ..., z̄_d, u]`` is
``h(u | z̄)``. For the paper's setting (``B=5``, ``d=2``) this is a
``6 x 6 x 2`` table — small enough that dense algebra is always the right
choice.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["DecisionRule"]


class DecisionRule:
    """Dense routing rule over ``d`` sampled queues.

    Parameters
    ----------
    probs:
        Array broadcastable to shape ``(S,)*d + (d,)`` whose last axis is
        a probability vector for every joint sampled-state ``z̄``.
    validate:
        If true (default), check simplex constraints up to ``atol``.
    """

    __slots__ = ("probs", "num_states", "d")

    def __init__(self, probs: np.ndarray, validate: bool = True, atol: float = 1e-8):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim < 2:
            raise ValueError("decision rule needs at least 2 axes: (states..., action)")
        d = probs.ndim - 1
        if probs.shape[-1] != d:
            raise ValueError(
                f"last axis must have size d={d} (one prob per sampled queue), "
                f"got shape {probs.shape}"
            )
        state_sizes = set(probs.shape[:-1])
        if len(state_sizes) != 1:
            raise ValueError(
                f"all state axes must have equal length, got shape {probs.shape}"
            )
        self.probs = probs
        self.num_states = probs.shape[0]
        self.d = d
        if validate:
            self._validate(atol)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_states: int, d: int) -> "DecisionRule":
        """MF-RND (Eq. 35): route uniformly among the ``d`` sampled queues."""
        shape = (num_states,) * d + (d,)
        return cls(np.full(shape, 1.0 / d))

    @classmethod
    def join_shortest(cls, num_states: int, d: int) -> "DecisionRule":
        """MF-JSQ(d) (Eq. 34): uniform over the sampled queues of minimal state."""
        shape = (num_states,) * d + (d,)
        probs = np.zeros(shape)
        for zbar in itertools.product(range(num_states), repeat=d):
            arr = np.asarray(zbar)
            minimal = arr == arr.min()
            probs[zbar] = minimal / minimal.sum()
        return cls(probs)

    @classmethod
    def join_longest(cls, num_states: int, d: int) -> "DecisionRule":
        """Adversarial rule (joins the *fullest* queue) — used in tests as a
        known-bad policy: it should never beat MF-JSQ on drops."""
        shape = (num_states,) * d + (d,)
        probs = np.zeros(shape)
        for zbar in itertools.product(range(num_states), repeat=d):
            arr = np.asarray(zbar)
            maximal = arr == arr.max()
            probs[zbar] = maximal / maximal.sum()
        return cls(probs)

    @classmethod
    def threshold(cls, num_states: int, d: int, threshold: int) -> "DecisionRule":
        """Route JSQ-style only when the shortest sampled queue is below
        ``threshold``; otherwise route uniformly. A simple interpolation
        family between MF-JSQ (``threshold = S``) and MF-RND
        (``threshold = 0``) used in examples and ablations."""
        jsq = cls.join_shortest(num_states, d).probs
        rnd = cls.uniform(num_states, d).probs
        probs = np.empty_like(jsq)
        for zbar in itertools.product(range(num_states), repeat=d):
            probs[zbar] = jsq[zbar] if min(zbar) < threshold else rnd[zbar]
        return cls(probs)

    @classmethod
    def from_raw(
        cls,
        raw: np.ndarray,
        num_states: int,
        d: int,
        floor: float = 1e-6,
    ) -> "DecisionRule":
        """Map an unconstrained RL action onto the simplex.

        Mirrors the paper's "manual normalization" of Gaussian-policy
        outputs (Section 4): values are clipped into ``[0, 1]``, floored
        by ``floor`` (so every sampled queue keeps positive mass and the
        normalizer can never vanish), and normalized along the action
        axis.
        """
        raw = np.asarray(raw, dtype=np.float64)
        expected = num_states**d * d
        if raw.size != expected:
            raise ValueError(
                f"raw action has {raw.size} entries, expected {expected} "
                f"(= S^d * d with S={num_states}, d={d})"
            )
        return cls(
            cls.stack_from_raw(raw.reshape(expected), num_states, d, floor),
            validate=False,
        )

    @staticmethod
    def stack_from_raw(
        raw: np.ndarray, num_states: int, d: int, floor: float = 1e-6
    ) -> np.ndarray:
        """Rule tables of a stack of raw actions, in one pass.

        ``raw`` is shaped ``(..., S^d * d)``; returns the probability
        tables ``(..., S, ..., S, d)`` that :meth:`from_raw` builds for
        each action (same clip, floor and normalization, bit for bit).
        """
        raw = np.asarray(raw, dtype=np.float64)
        expected = num_states**d * d
        if raw.ndim == 0 or raw.shape[-1] != expected:
            raise ValueError(
                f"raw actions have shape {raw.shape}, expected (..., "
                f"{expected}) (= S^d * d with S={num_states}, d={d})"
            )
        shaped = raw.reshape(raw.shape[:-1] + (num_states,) * d + (d,))
        clipped = np.minimum(np.maximum(shaped, 0.0), 1.0) + floor
        return clipped / clipped.sum(axis=-1, keepdims=True)

    @classmethod
    def from_flat(cls, flat: np.ndarray, num_states: int, d: int) -> "DecisionRule":
        """Rebuild from :meth:`flat` output (already a valid simplex table)."""
        shaped = np.asarray(flat, dtype=np.float64).reshape(
            (num_states,) * d + (d,)
        )
        return cls(shaped)

    @classmethod
    def convex_combination(
        cls, rules: Iterable["DecisionRule"], weights: Iterable[float]
    ) -> "DecisionRule":
        """Pointwise mixture of rules (stays on the simplex)."""
        rules = list(rules)
        weights_arr = np.asarray(list(weights), dtype=np.float64)
        if len(rules) == 0 or len(rules) != weights_arr.size:
            raise ValueError("need equally many rules and weights (>= 1)")
        if np.any(weights_arr < 0) or not np.isclose(weights_arr.sum(), 1.0):
            raise ValueError("weights must be a probability vector")
        shape = rules[0].probs.shape
        if any(r.probs.shape != shape for r in rules):
            raise ValueError("all rules must share (S, d)")
        mixed = sum(w * r.probs for w, r in zip(weights_arr, rules))
        return cls(mixed)

    # ------------------------------------------------------------------
    # Validation & representation
    # ------------------------------------------------------------------
    def _validate(self, atol: float) -> None:
        if np.any(self.probs < -atol):
            raise ValueError("decision rule has negative probabilities")
        sums = self.probs.sum(axis=-1)
        if not np.allclose(sums, 1.0, atol=1e-6):
            worst = float(np.abs(sums - 1.0).max())
            raise ValueError(
                f"decision rule rows must sum to 1 (max deviation {worst:.3g})"
            )

    def flat(self) -> np.ndarray:
        """Flat copy of the probability table (for optimizers/serialization)."""
        return self.probs.ravel().copy()

    @property
    def num_parameters(self) -> int:
        return self.probs.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionRule):
            return NotImplemented
        return self.probs.shape == other.probs.shape and np.allclose(
            self.probs, other.probs
        )

    def __hash__(self) -> int:  # pragma: no cover - rules are not dict keys
        raise TypeError("DecisionRule is unhashable")

    def distance(self, other: "DecisionRule") -> float:
        """Max over ``z̄`` of the total-variation distance between rows."""
        if self.probs.shape != other.probs.shape:
            raise ValueError("rules have different shapes")
        return float(0.5 * np.abs(self.probs - other.probs).sum(axis=-1).max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecisionRule(S={self.num_states}, d={self.d}, "
            f"params={self.num_parameters})"
        )

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def action_probs(self, zbar: np.ndarray) -> np.ndarray:
        """Rows ``h(· | z̄)`` for a batch of sampled states.

        Parameters
        ----------
        zbar:
            Integer array of shape ``(n, d)`` (or ``(d,)``) of sampled
            queue states.

        Returns
        -------
        Array of shape ``(n, d)`` of routing probabilities.
        """
        zbar = np.asarray(zbar)
        single = zbar.ndim == 1
        if single:
            zbar = zbar[None, :]
        if zbar.shape[1] != self.d:
            raise ValueError(f"zbar must have {self.d} columns, got {zbar.shape}")
        if zbar.min() < 0 or zbar.max() >= self.num_states:
            raise ValueError(
                f"sampled states must lie in [0, {self.num_states - 1}]"
            )
        idx = tuple(zbar[:, k] for k in range(self.d))
        rows = self.probs[idx]
        return rows[0] if single else rows

    def sample_actions(
        self,
        zbar: np.ndarray,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sample ``u_i ~ h(· | z̄_i)`` for a batch of agents (vectorized)."""
        rng = as_generator(rng)
        rows = self.action_probs(np.atleast_2d(np.asarray(zbar)))
        cdf = np.cumsum(rows, axis=1)
        # Guard against round-off: the final cumulative value is exactly 1.
        cdf[:, -1] = 1.0
        uniforms = rng.random(rows.shape[0])
        return (uniforms[:, None] > cdf).sum(axis=1)

    # ------------------------------------------------------------------
    # Symmetry
    # ------------------------------------------------------------------
    def symmetrized(self) -> "DecisionRule":
        """Average the rule over simultaneous permutations of slots.

        Because agents sample their ``d`` queues i.i.d. uniformly, the
        optimal rule can be taken exchangeable:
        ``h(σ(u) | z̄ ∘ σ⁻¹) = h(u | z̄)`` for any slot permutation σ.
        Symmetrizing never changes the induced per-state arrival rates
        (tested), but halves the effective search space for ``d=2``.
        """
        acc = np.zeros_like(self.probs)
        count = 0
        for perm in itertools.permutations(range(self.d)):
            # Move state axes according to perm and re-index the action axis.
            permuted = np.transpose(self.probs, axes=(*perm, self.d))
            permuted = permuted[..., list(perm)]
            acc += permuted
            count += 1
        return DecisionRule(acc / count)

    def is_symmetric(self, atol: float = 1e-10) -> bool:
        return self.distance(self.symmetrized()) <= atol
