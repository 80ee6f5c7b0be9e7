"""Mean-field model with heterogeneous server classes (paper §5).

The homogeneous mean-field state is the queue-filling distribution
``ν ∈ P(Z)``. With ``C`` server classes the state becomes a joint
distribution over observed states ``(z, c) ∈ Z × C`` (encoded flat as
``o = z·C + c``, matching :mod:`repro.queueing.heterogeneous`). Two
facts make the extension land on the existing machinery:

* the per-state arrival-rate contraction of Eq. (22) is agnostic to what
  the "state" means — it works verbatim on the flat ``Z × C`` space;
* within an epoch a queue's filling evolves inside its own class (the
  class never changes), so the exact discretization factorizes into one
  birth-death propagation per class, each with its own service rate.

Class masses ``w_c = Σ_z ν(z, c)`` are conserved exactly (tested).
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import (
    _contract,
    _on_simplex,
    per_state_arrival_rates,
    propagate_state,
)
from repro.queueing.heterogeneous import ServerClassSpec

__all__ = ["HeterogeneousMeanFieldModel"]


class HeterogeneousMeanFieldModel:
    """Exact mean-field epoch dynamics on the ``Z × C`` observed states.

    Parameters
    ----------
    config:
        System parameters (buffer size, ``d``, ``Δt``; the homogeneous
        ``service_rate`` field is ignored in favour of the class spec).
    spec:
        Server classes (rates and population fractions).
    """

    def __init__(self, config: SystemConfig, spec: ServerClassSpec) -> None:
        self.config = config
        self.spec = spec
        self.num_fillings = config.num_queue_states
        self.num_classes = spec.num_classes
        self.num_states = spec.num_observed_states(config.buffer_size)

    # ------------------------------------------------------------------
    def initial_distribution(self) -> np.ndarray:
        """``ν₀``: every queue at ``initial_state``, classes at their
        population fractions."""
        nu = np.zeros(self.num_states)
        for c, fraction in enumerate(self.spec.fractions):
            nu[self.config.initial_state * self.num_classes + c] = fraction
        return nu

    def class_masses(self, nu: np.ndarray) -> np.ndarray:
        """Per-class total mass ``w_c`` (invariant under the dynamics)."""
        nu = np.asarray(nu)
        return nu.reshape(self.num_fillings, self.num_classes).sum(axis=0)

    def filling_marginal(self, nu: np.ndarray) -> np.ndarray:
        """Marginal distribution of the queue filling ``z``."""
        nu = np.asarray(nu)
        return nu.reshape(self.num_fillings, self.num_classes).sum(axis=1)

    # ------------------------------------------------------------------
    def epoch_update(
        self, nu: np.ndarray, rule: DecisionRule, lam: float
    ) -> tuple[np.ndarray, float]:
        """One exact epoch: ``(ν_{t+1}, expected drops per queue)``."""
        nu = np.asarray(nu, dtype=np.float64)
        if nu.shape != (self.num_states,):
            raise ValueError(f"nu must have shape ({self.num_states},)")
        if rule.num_states != self.num_states or rule.d != self.config.d:
            raise ValueError(
                "rule geometry does not match the heterogeneous model "
                f"(expected S={self.num_states}, d={self.config.d})"
            )
        rates = per_state_arrival_rates(nu, rule, lam)
        # Class blocks, one law per class: row c holds the fillings of
        # class c. Contiguous rows keep each block's gemv the one-block call.
        shape = (self.num_fillings, self.num_classes)
        transitions, drop_rows = propagate_state(
            rates.reshape(shape).T,
            self.spec.service_rates,
            self.config.delta_t,
            self.num_fillings,
        )
        blocks, drops = _contract(
            np.ascontiguousarray(nu.reshape(shape).T), transitions, drop_rows
        )
        return _on_simplex(blocks.T.ravel()), float(drops.sum())

    def rollout_drops(
        self,
        rule: DecisionRule,
        arrival_rates_per_epoch: np.ndarray,
    ) -> float:
        """Cumulative expected drops under a constant rule and a scripted
        sequence of arrival intensities."""
        nu = self.initial_distribution()
        total = 0.0
        for lam in np.asarray(arrival_rates_per_epoch, dtype=np.float64):
            nu, d = self.epoch_update(nu, rule, float(lam))
            total += d
        return total

    def stationary_distribution(
        self,
        rule: DecisionRule,
        lam: float,
        tol: float = 1e-12,
        max_iterations: int = 100_000,
    ) -> tuple[np.ndarray, float]:
        """Fixed point of the constant-rule epoch map; returns
        ``(ν*, drops per epoch at ν*)``."""
        nu = self.initial_distribution()
        drops = 0.0
        for _ in range(max_iterations):
            nu_next, drops = self.epoch_update(nu, rule, lam)
            if np.abs(nu_next - nu).sum() < tol:
                return nu_next, drops
            nu = nu_next
        return nu, drops
