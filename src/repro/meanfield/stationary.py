"""Stationary analysis of the mean-field dynamics under constant rules.

For a *fixed* decision rule ``h`` and constant arrival intensity ``λ``
the exact epoch map ``ν ↦ T_ν(ν, λ, h)`` (Eq. 24) is a continuous map of
the probability simplex into itself, so a fixed point exists (Brouwer).
The fixed point is the long-run queue-length distribution the system
settles into, and its drop functional is the steady-state loss rate —
the quantity that dominates the paper's cumulative-drop metrics once the
``ν₀ = δ₀`` transient has washed out.

Closed-form anchor: under MF-RND every queue sees exactly rate ``λ``, so
the fixed point is the M/M/1/B stationary law (tested). For JSQ-like
rules the fixed point captures the herding equilibrium: the map
concentrates arrivals on short queues *within* an epoch, and the
stationary ν balances that against service.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import epoch_update

__all__ = ["StationaryResult", "stationary_distribution"]


@dataclass(frozen=True)
class StationaryResult:
    """Fixed point of the constant-rule mean-field epoch map."""

    nu: np.ndarray
    drops_per_epoch: float
    residual: float  # ‖T(ν*) − ν*‖₁
    iterations: int
    converged: bool

    @property
    def mean_queue_length(self) -> float:
        return float(self.nu @ np.arange(self.nu.size))

    @property
    def fill_probability(self) -> float:
        """Stationary fraction of full queues (the drop-prone mass)."""
        return float(self.nu[-1])


def stationary_distribution(
    rule: DecisionRule,
    lam: float,
    service: float,
    delta_t: float,
    tol: float = 1e-12,
    max_iterations: int = 100_000,
    damping: float = 0.0,
    initial: np.ndarray | None = None,
) -> StationaryResult:
    """Iterate the exact epoch map to its fixed point.

    Plain (optionally damped) fixed-point iteration: the epoch map is a
    composition of stochastic matrices and empirically a contraction for
    all paper-regime parameters; ``damping`` ∈ [0, 1) mixes in the
    previous iterate for stubborn cases.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must lie in [0, 1), got {damping}")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    s = rule.num_states
    if initial is not None:
        nu = np.asarray(initial, dtype=np.float64)
        if nu.shape != (s,) or np.any(nu < 0) or not np.isclose(nu.sum(), 1.0):
            raise ValueError("initial must be a distribution over rule states")
    else:
        nu = np.full(s, 1.0 / s)
    drops = 0.0
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        nu_next, drops = epoch_update(nu, rule, lam, service, delta_t)
        if damping > 0.0:
            nu_next = damping * nu + (1.0 - damping) * nu_next
            nu_next /= nu_next.sum()
        residual = float(np.abs(nu_next - nu).sum())
        nu = nu_next
        if residual < tol:
            break
    return StationaryResult(
        nu=nu,
        drops_per_epoch=float(drops),
        residual=residual,
        iterations=iterations,
        converged=residual < tol,
    )
