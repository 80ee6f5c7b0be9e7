"""Exact discretization of the mean-field dynamics (paper Section 2.4).

Within one decision epoch of length ``Δt`` every queue evolves as a
birth-death CTMC whose arrival rate is *frozen* at the value implied by
its state at the epoch start:

    λ_t(ν, z) = λ_t · Σ_u Σ_{z̄ : z̄_u = z} Π_{i≠u} ν(z̄_i) · h(u | z̄)

(Eq. 22, in the ν(z)-cancelled form that also appears in the proof of
Theorem 1 — this removes the 0/0 issue when ``ν(z) = 0``). The epoch map
``ν_t → ν_{t+1}`` and the expected per-queue drops ``D_t`` then follow
from one matrix exponential of the extended generator per initial state
(Eq. 27-28):

    [P_z(Δt), D_z(Δt)] = [e_z, 0] · expm(Ā(ν_t, z) Δt)

with the ``(S+1) x (S+1)`` block matrix ``Ā = [[G, r], [0, 0]]`` where
``G`` is the row-stochastic birth-death generator and ``r = λ_t(ν,z)·e_B``
accumulates the drop flux (arrivals occurring while the queue sits at its
buffer limit ``B``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from repro.meanfield.decision_rule import DecisionRule

__all__ = [
    "per_state_arrival_rates",
    "birth_death_generator",
    "extended_generator",
    "propagate_state",
    "propagate_laws",
    "epoch_update",
    "ExactPropagator",
    "TabulatedPropagator",
    "uniformization_transition_matrix",
]


def per_state_arrival_rates(
    nu: np.ndarray, rule: DecisionRule, lam: float
) -> np.ndarray:
    """Frozen per-queue arrival rate ``λ_t(ν, z)`` for every ``z`` (Eq. 22).

    For each action slot ``u`` the inner sum is a tensor contraction of
    ``h(u | ·)`` with ``ν`` along every state axis except axis ``u``; the
    result is indexed by the state in slot ``u``.

    The returned vector satisfies the *arrival-mass identity*
    ``Σ_z ν(z) λ(ν,z) = λ`` for any row-stochastic rule — thinning the
    global Poisson stream of rate ``M λ`` over queues loses no mass.
    """
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (rule.num_states,):
        raise ValueError(
            f"nu has shape {nu.shape}, expected ({rule.num_states},)"
        )
    if lam < 0:
        raise ValueError(f"arrival intensity must be >= 0, got {lam}")
    d = rule.d
    total = np.zeros(rule.num_states)
    for u in range(d):
        t = rule.probs[..., u]
        # Contract axes in descending order so that remaining axis indices
        # stay valid; skip the slot-u axis, which carries the output index.
        for axis in range(d - 1, -1, -1):
            if axis == u:
                continue
            t = np.tensordot(t, nu, axes=([axis], [0]))
        total += t
    return lam * total


def birth_death_generator(
    arrival: float | np.ndarray, service: float | np.ndarray, num_states: int
) -> np.ndarray:
    """Row-convention generator of the finite-buffer birth-death chain.

    State space ``{0, ..., B}`` with ``B = num_states - 1``; up-jumps at
    ``arrival`` (except from ``B``, where arrivals are dropped and do not
    move the state), down-jumps at ``service`` (except from ``0``). Rows
    sum to zero. Rate arrays broadcast against each other; the result
    stacks one ``(S, S)`` generator per broadcast entry.
    """
    if num_states < 2:
        raise ValueError("need at least two queue states")
    arrival = np.asarray(arrival, dtype=np.float64)
    service = np.asarray(service, dtype=np.float64)
    if np.any(arrival < 0) or np.any(service < 0):
        raise ValueError("rates must be non-negative")
    batch = np.broadcast_shapes(arrival.shape, service.shape)
    g = np.zeros(batch + (num_states, num_states))
    idx = np.arange(num_states - 1)
    g[..., idx, idx + 1] = arrival[..., None]
    g[..., idx + 1, idx] = service[..., None]
    diag = np.arange(num_states)
    g[..., diag, diag] = -g.sum(axis=-1)
    return g


def extended_generator(
    arrival: float | np.ndarray, service: float | np.ndarray, num_states: int
) -> np.ndarray:
    """``(S+1) x (S+1)`` extended generator with the drop-flux column.

    The last column accumulates ``∫ arrival · P(y(s) = B) ds``; the last
    row is zero (the accumulator is an integral, not a state). Broadcasts
    like :func:`birth_death_generator`.
    """
    g = birth_death_generator(arrival, service, num_states)
    ext = np.zeros(g.shape[:-2] + (num_states + 1, num_states + 1))
    ext[..., :num_states, :num_states] = g
    ext[..., num_states - 1, num_states] = arrival
    return ext


def propagate_state(
    arrival_rates: np.ndarray,
    service: float | np.ndarray,
    delta_t: float,
    num_states: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-initial-state propagator rows and expected drops (Eq. 28).

    ``arrival_rates`` has shape ``(..., S)``: the frozen rate of each
    initial state, for one law or a stack of them; ``service`` broadcasts
    over the leading axes (one service rate per law). All rows come from
    one stacked ``expm``, which works slice by slice, so every batch
    entry equals its own unbatched call bit for bit.

    Returns
    -------
    transitions:
        Array ``(..., S, S)`` where row ``z`` is the distribution of the
        queue state after ``Δt`` given it started the epoch in state ``z``
        (and received arrivals at the frozen rate ``arrival_rates[..., z]``).
    drops:
        Array ``(..., S)`` of expected packets dropped during the epoch by
        a queue starting in state ``z``.
    """
    if delta_t <= 0:
        raise ValueError(f"delta_t must be > 0, got {delta_t}")
    rates = np.asarray(arrival_rates, dtype=np.float64)
    if rates.ndim == 0 or rates.shape[-1] != num_states:
        raise ValueError(
            f"arrival_rates must end in an axis of {num_states} states, "
            f"got shape {rates.shape}"
        )
    service = np.asarray(service, dtype=np.float64)[..., None]
    exp_stack = expm(extended_generator(rates, service, num_states) * delta_t)
    z = np.arange(num_states)
    rows = exp_stack[..., z, z, :]  # row z of the z-th exponential
    drops = rows[..., num_states]
    # The drop integral is non-negative; at vanishing rates expm's
    # round-off can leave it a denormal below zero. Clamped in place: a
    # contiguous copy would change how the contraction sums it.
    np.maximum(drops, 0.0, out=drops)
    return rows[..., :num_states], drops


def _contract(
    nus: np.ndarray, transitions: np.ndarray, drops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(ν P, ν · d)`` for every law of a stack.

    Each batch entry runs the BLAS gemv and dot that ``nu @ P`` and
    ``nu @ d`` run on one law, so batching changes no bit. The state
    columns and the drop column are contracted separately: one product
    over all ``S + 1`` row columns would sum in another order.
    """
    row = nus[..., None, :]
    return (
        np.matmul(row, transitions)[..., 0, :],
        np.matmul(row, drops[..., None])[..., 0, 0],
    )


def _on_simplex(nus: np.ndarray) -> np.ndarray:
    """Round-off guard: the analytical update preserves the simplex exactly."""
    nus = np.maximum(nus, 0.0)
    nus /= nus.sum(axis=-1, keepdims=True)
    return nus


def propagate_laws(
    nus: np.ndarray,
    arrival_rates: np.ndarray,
    service: float | np.ndarray,
    delta_t: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance laws ``(..., S)`` by one exact epoch (Eq. 24-26).

    ``arrival_rates`` are the frozen per-state rates of each law and
    ``service`` one service rate per law (or a shared scalar). Returns
    ``(ν_{t+1}, expected drops per queue, transitions)`` shaped
    ``(..., S)``, ``(...)`` and ``(..., S, S)``; the transitions feed
    the propagator products of :mod:`repro.meanfield.delayed`.
    """
    nus = np.asarray(nus, dtype=np.float64)
    transitions, drops = propagate_state(
        arrival_rates, service, delta_t, nus.shape[-1]
    )
    nu_next, expected = _contract(nus, transitions, drops)
    return _on_simplex(nu_next), expected, transitions


def epoch_update(
    nu: np.ndarray,
    rule: DecisionRule,
    lam: float,
    service: float,
    delta_t: float,
) -> tuple[np.ndarray, float]:
    """One exact epoch of the mean-field dynamics (Eq. 24-26).

    Returns ``(nu_next, expected_drops_per_queue)``.
    """
    nu = np.asarray(nu, dtype=np.float64)
    rates = per_state_arrival_rates(nu, rule, lam)
    nu_next, drops, _ = propagate_laws(nu, rates, service, delta_t)
    return nu_next, float(drops)


def uniformization_transition_matrix(
    arrival: float,
    service: float,
    num_states: int,
    delta_t: float,
    tol: float = 1e-12,
) -> np.ndarray:
    """Epoch transition matrix via uniformization (validation path).

    ``P(Δt) = Σ_k e^{-ΛΔt} (ΛΔt)^k / k! · U^k`` with
    ``U = I + G/Λ`` and ``Λ ≥ max_i |G_ii|``. Truncates the Poisson sum
    once the remaining mass falls below ``tol``. Used in tests to
    cross-validate the ``expm`` path with an independent algorithm.
    """
    g = birth_death_generator(arrival, service, num_states)
    lam_unif = float(max(-g.diagonal().min(), 1e-12))
    u = np.eye(num_states) + g / lam_unif
    mean_jumps = lam_unif * delta_t
    weight = np.exp(-mean_jumps)
    term = np.eye(num_states)
    total = weight * term
    accumulated = weight
    k = 0
    # Poisson tail bound: stop when remaining probability mass < tol.
    while 1.0 - accumulated > tol and k < 100_000:
        k += 1
        term = term @ u
        weight = weight * mean_jumps / k
        total += weight * term
        accumulated += weight
    # Renormalize the truncated sum so rows are exactly stochastic.
    total /= total.sum(axis=1, keepdims=True)
    return total


class ExactPropagator:
    """Stateless exact epoch propagator (one stacked ``expm`` per call)."""

    def __init__(self, num_states: int, service: float, delta_t: float) -> None:
        if num_states < 2:
            raise ValueError("need at least two queue states")
        if service <= 0 or delta_t <= 0:
            raise ValueError("service and delta_t must be > 0")
        self.num_states = num_states
        self.service = service
        self.delta_t = delta_t

    def propagate(
        self, nu: np.ndarray, arrival_rates: np.ndarray
    ) -> tuple[np.ndarray, float]:
        nu_next, drops, _ = propagate_laws(
            nu, arrival_rates, self.service, self.delta_t
        )
        return nu_next, float(drops)


class TabulatedPropagator:
    """Grid-interpolated epoch propagator (training fast path).

    Pre-computes the extended matrix exponential on a uniform grid of
    arrival-rate values and answers queries by linear interpolation of
    the exponentials. Interpolation is a convex combination of stochastic
    matrices, so the returned ``ν_{t+1}`` is always a valid distribution
    and drops are always non-negative; the dynamics error is
    ``O(grid_step²)`` and is measured explicitly in the ablation bench.
    """

    def __init__(
        self,
        num_states: int,
        service: float,
        delta_t: float,
        max_arrival: float,
        grid_size: int = 257,
    ) -> None:
        if grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if max_arrival <= 0:
            raise ValueError("max_arrival must be > 0")
        self.num_states = num_states
        self.service = service
        self.delta_t = delta_t
        self.max_arrival = max_arrival
        self.grid = np.linspace(0.0, max_arrival, grid_size)
        self._step = self.grid[1] - self.grid[0]
        # Table of expm rows: shape (grid, S, S+1); entry [g, z, :] is the
        # z-th row of expm(Ā(grid[g]) Δt) (state distribution + drops).
        self._table = expm(
            extended_generator(self.grid, service, num_states) * delta_t
        )[:, :num_states, :]

    def _rows(self, arrival_rates: np.ndarray) -> np.ndarray:
        """Interpolated (state-distribution + drop) rows per initial state.

        ``arrival_rates`` has shape ``(..., S)``; the rows ``(..., S, S+1)``.
        """
        rates = np.asarray(arrival_rates, dtype=np.float64)
        if rates.ndim == 0 or rates.shape[-1] != self.num_states:
            raise ValueError(
                f"arrival_rates must have shape (..., {self.num_states})"
            )
        if rates.min() < -1e-12 or rates.max() > self.max_arrival + 1e-9:
            raise ValueError(
                f"arrival rates {rates} outside tabulated range "
                f"[0, {self.max_arrival}]"
            )
        pos = np.clip(rates, 0.0, self.max_arrival) / self._step
        low = np.minimum(pos.astype(np.intp), len(self.grid) - 2)
        frac = (pos - low)[..., None]
        z_idx = np.arange(self.num_states)
        row_low = self._table[low, z_idx, :]
        row_high = self._table[low + 1, z_idx, :]
        return row_low * (1.0 - frac) + row_high * frac

    def propagate(
        self, nu: np.ndarray, arrival_rates: np.ndarray
    ) -> tuple[np.ndarray, float]:
        rows = self._rows(arrival_rates)
        nu_next, drops = _contract(
            np.asarray(nu, dtype=np.float64),
            rows[:, : self.num_states],
            rows[:, self.num_states],
        )
        return _on_simplex(nu_next), float(drops)

    def max_interpolation_error(self, probe_points: int = 100) -> float:
        """Sup-norm error of interpolated rows at grid midpoints."""
        probes = np.linspace(
            self._step / 2.0, self.max_arrival - self._step / 2.0, probe_points
        )
        rates = np.repeat(probes[:, None], self.num_states, axis=1)
        exact, drops = propagate_state(
            rates, self.service, self.delta_t, self.num_states
        )
        exact_rows = np.concatenate([exact, drops[..., None]], axis=-1)
        return float(np.abs(exact_rows - self._rows(rates)).max())
