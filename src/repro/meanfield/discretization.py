"""Exact discretization of the mean-field dynamics (paper Section 2.4).

Within one decision epoch of length ``Δt`` every queue evolves as a
birth-death CTMC whose arrival rate is *frozen* at the value implied by
its state at the epoch start:

    λ_t(ν, z) = λ_t · Σ_u Σ_{z̄ : z̄_u = z} Π_{i≠u} ν(z̄_i) · h(u | z̄)

(Eq. 22, in the ν(z)-cancelled form that also appears in the proof of
Theorem 1 — this removes the 0/0 issue when ``ν(z) = 0``). The epoch map
``ν_t → ν_{t+1}`` and the expected per-queue drops ``D_t`` then follow
from the exponential of the extended generator per initial state
(Eq. 27-28):

    [P_z(Δt), D_z(Δt)] = [e_z, 0] · expm(Ā(ν_t, z) Δt)

with the ``(S+1) x (S+1)`` block matrix ``Ā = [[G, r], [0, 0]]`` where
``G`` is the row-stochastic birth-death generator and ``r = λ_t(ν,z)·e_B``
accumulates the drop flux (arrivals occurring while the queue sits at its
buffer limit ``B``).

A birth-death generator is reversible, so that row has a closed form.
With ``r = √(λ/α)`` the matrix ``Π^{1/2} G Π^{-1/2}`` is symmetric
tridiagonal (off-diagonal ``√(λα)``, diagonal
``−λ·[z < B] − α·[z > 0]``), and its eigenpairs are known in closed
form (the finite-buffer M/M/1/B spectrum): the stationary mode
``μ_0 = 0`` with eigenvector ``∝ r^j = √(π_j / π_0)``, and for
``θ_k = kπ/S``, ``k = 1..B``,

    μ_k = −(λ + α) + 2√(λα) cos θ_k < 0,
    v_j^(k) = sin((j+1)θ_k) − r^{−1} sin(jθ_k),
    |v^(k)|² = (S/2) (1 + r^{−2} − 2 r^{−1} cos θ_k)

Row ``z`` and its drop integral then follow without any matrix
function:

    P_zj(Δt) = π_j + r^{j−z} Σ_k v_z^(k) v_j^(k) e^{μ_k Δt} / |v^(k)|²
    D_z(Δt)  = λ [π_B Δt + r^{B−z} Σ_k v_z^(k) v_B^(k) (e^{μ_k Δt} − 1) / (μ_k |v^(k)|²)]

The factor ``r^{j−z}`` also scales the round-off of the sums, so
slices where it can grow large take ``expm`` instead (see
:func:`propagate_state`).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import expm

from repro.meanfield.decision_rule import DecisionRule

__all__ = [
    "per_state_arrival_rates",
    "unit_arrival_rates",
    "birth_death_generator",
    "extended_generator",
    "propagate_state",
    "propagate_laws",
    "epoch_update",
    "ExactPropagator",
    "TabulatedPropagator",
]

#: Largest round-off growth factor (see :func:`_closed_form_slices`) at
#: which a slice takes the closed form. Measured against ``expm`` over
#: S = 2..11, α ∈ {0.1, 0.3, 1}, Δt ∈ [1e-2, 5] and λ ∈ [1e-4, 1e3]
#: (λΔt ≤ 1e3, where ``expm`` itself is accurate): the closed-form rows,
#: and the drops relative to λΔt, stay within 2.1e-13 of it at this
#: bound, against 4.8e-13 at 2e3 and 1.6e-12 at 1e4.
_MAX_GROWTH = 1e3

#: ``numpy.einsum`` letters for the rule's state axes; ``e`` (rule) and
#: ``k`` (law) label the batch axes.
_STATE_AXES = "abcdfghijlmnopqrstuvwxyz"


def per_state_arrival_rates(
    nu: np.ndarray, rule: DecisionRule | np.ndarray, lam: float | np.ndarray
) -> np.ndarray:
    """Frozen per-queue arrival rate ``λ_t(ν, z)`` for every ``z`` (Eq. 22).

    ``nu`` is one law ``(S,)`` or a stack of laws ``(..., S)``. ``rule``
    is one :class:`~repro.meanfield.decision_rule.DecisionRule` that
    every law routes with, or a stacked rule table ``(E, S, ..., S, d)``
    (see :func:`repro.queueing.clients.stack_rules`) whose entry ``e``
    pairs with the laws ``nu[e]``. ``lam`` is one intensity or one per
    law, broadcasting against ``nu.shape[:-1]``. Returns rates shaped
    like ``nu``.

    For each action slot ``u`` one :func:`numpy.einsum` contracts
    ``h(u | ·)`` with ``ν`` along every state axis except axis ``u``; the
    result is indexed by the state in slot ``u``, and the slots add up
    in order. Each law's rates equal its own single-law call bit for bit.

    The returned vector satisfies the *arrival-mass identity*
    ``Σ_z ν(z) λ(ν,z) = λ`` for any row-stochastic rule — thinning the
    global Poisson stream of rate ``M λ`` over queues loses no mass.
    """
    nu = np.asarray(nu, dtype=np.float64)
    probs, hists = _paired_laws(nu, rule)
    lam = np.asarray(lam, dtype=np.float64)
    if not ((lam >= 0) & (lam < np.inf)).all():
        raise ValueError(f"arrival intensity lam must be finite and >= 0, got {lam}")
    return lam[..., None] * unit_arrival_rates(hists, probs).reshape(nu.shape)


def unit_arrival_rates(hists: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Eq. 22 at unit intensity, ``g[e, k, z] = λ_t(ν_ek, z) / λ_t``.

    ``hists`` holds laws ``(E, K, S)`` and ``probs`` a stacked rule table
    ``(E, S, ..., S, d)``; the result has the shape of ``hists``. The
    unchecked core of :func:`per_state_arrival_rates`, which the finite
    clients call on their own histograms
    (:func:`repro.queueing.clients.choice_probabilities`).
    """
    d = probs.ndim - 2
    if d == 1:
        # A single sample is always joined: g(z) = h(0 | z) = 1.
        return np.broadcast_to(probs[:, None, :, 0], hists.shape).copy()
    axes = _STATE_AXES[:d]
    total = None
    for u in range(d):
        others = ["ek" + axes[i] for i in range(d) if i != u]
        term = np.einsum(
            ",".join(["e" + axes, *others]) + "->ek" + axes[u],
            probs[..., u],
            *[hists] * (d - 1),
        )
        total = term if total is None else total + term
    return total


def _paired_laws(
    nu: np.ndarray, rule: DecisionRule | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rule table ``(E, S, ..., S, d)`` and the laws ``(E, K, S)``
    each of its entries routes against."""
    probs = rule.probs[None] if isinstance(rule, DecisionRule) else rule
    num_states = probs.shape[1]
    if nu.ndim == 0 or nu.shape[-1] != num_states:
        raise ValueError(
            f"nu has shape {nu.shape}, expected (..., {num_states})"
        )
    if isinstance(rule, DecisionRule):
        return probs, nu.reshape(1, -1, num_states)
    if nu.ndim == 1 or nu.shape[0] != probs.shape[0]:
        raise ValueError(
            f"nu has shape {nu.shape}; a stack of {probs.shape[0]} rules "
            f"needs laws ({probs.shape[0]}, ..., {num_states})"
        )
    return probs, nu.reshape(probs.shape[0], -1, num_states)


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


def _require_rates(values: np.ndarray, name: str) -> None:
    """Reject non-finite or negative rates, naming the input."""
    if not ((values >= 0) & (values < np.inf)).all():
        raise ValueError(f"{name} must be finite and non-negative")


def propagate_state(
    arrival_rates: np.ndarray,
    service: float | np.ndarray,
    delta_t: float,
    num_states: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-initial-state propagator rows and expected drops (Eq. 28).

    ``arrival_rates`` has shape ``(..., S)``: the frozen rate of each
    initial state, for one law or a stack of them; ``service`` broadcasts
    over the leading axes (one service rate per law). Each slice (one
    law, one initial state) takes the closed form of the module
    docstring, or ``expm`` of its extended generator where the closed
    form's round-off could grow past the bound (see
    :func:`_closed_form_slices`). The branch is chosen per slice from
    that slice's own inputs and every step works slice by slice, so
    every batch entry equals its own unbatched call bit for bit.

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
    if not (np.isfinite(delta_t) and delta_t > 0):
        raise ValueError(f"delta_t must be finite and > 0, got {delta_t}")
    if num_states < 2:
        raise ValueError("need at least two queue states")
    rates = np.asarray(arrival_rates, dtype=np.float64)
    if rates.ndim == 0 or rates.shape[-1] != num_states:
        raise ValueError(
            f"arrival_rates must end in an axis of {num_states} states, "
            f"got shape {rates.shape}"
        )
    _require_rates(rates, "arrival_rates")
    service = np.asarray(service, dtype=np.float64)
    _require_rates(service, "service")
    service = np.broadcast_to(service[..., None], rates.shape)
    # rows[..., z, :] = [P_z(Δt), D_z(Δt)], one row per slice.
    rows = np.empty(rates.shape + (num_states + 1,))
    flat = rows.reshape(-1, num_states + 1)
    lam, alpha = rates.reshape(-1), service.reshape(-1)
    z = np.broadcast_to(np.arange(num_states), rates.shape).reshape(-1)
    closed = _closed_form_slices(lam, alpha, z, num_states)
    if closed.any():
        flat[closed] = _closed_form_rows(
            lam[closed], alpha[closed], z[closed], delta_t, num_states
        )
    if not closed.all():
        other = ~closed
        exp_stack = expm(
            extended_generator(lam[other], alpha[other], num_states) * delta_t
        )
        flat[other] = exp_stack[np.arange(len(exp_stack)), z[other]]
    drops = rows[..., num_states]
    # The drop integral is non-negative; round-off at vanishing rates can
    # leave it a denormal below zero. Clamped in place: a contiguous copy
    # would change how the contraction sums it.
    np.maximum(drops, 0.0, out=drops)
    return rows[..., :num_states], drops


def _closed_form_slices(
    lam: np.ndarray, alpha: np.ndarray, z: np.ndarray, num_states: int
) -> np.ndarray:
    """Which slices take the closed form, from each slice's own inputs.

    Row ``z`` of the closed form rescales eigenvector sums by
    ``r^{j−z}``; the largest such factor, ``r^{B−z}`` for ``r ≥ 1`` and
    ``r^{−z}`` below, bounds how much their absolute round-off grows.
    Slices where it exceeds :data:`_MAX_GROWTH` (``λ → 0`` or
    ``λ/α → ∞`` towards the far end of the buffer), and slices without
    a positive ``λ`` and ``α``, go through ``expm``.
    """
    positive = (lam > 0) & (alpha > 0)
    log_r = 0.5 * np.log(np.divide(lam, alpha, out=np.ones_like(lam), where=positive))
    steps = np.where(log_r > 0, num_states - 1 - z, z)
    return positive & (np.abs(log_r) * steps <= np.log(_MAX_GROWTH))


@functools.lru_cache(maxsize=None)
def _mode_tables(num_states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cos θ_k``, ``sin((j+1)θ_k)`` and ``sin(jθ_k)`` for the transient
    modes ``θ_k = kπ/S``, ``k = 1..B``, and states ``j = 0..B``."""
    theta = np.arange(1, num_states) * np.pi / num_states
    states = np.arange(num_states)
    sin_next = np.sin(np.outer(states + 1, theta))
    sin_next[-1] = 0.0  # sin(kπ), exactly
    sin_here = np.sin(np.outer(states, theta))
    tables = (np.cos(theta), sin_next, sin_here)
    for table in tables:
        table.flags.writeable = False
    return tables


def _closed_form_rows(
    lam: np.ndarray,
    alpha: np.ndarray,
    z: np.ndarray,
    delta_t: float,
    num_states: int,
) -> np.ndarray:
    """``[P_z(Δt), D_z(Δt)]`` of each slice, ``(n, S + 1)``, from the
    eigenpairs of its symmetrized generator (module docstring)."""
    n, b = len(lam), num_states - 1
    cos_theta, sin_next, sin_here = _mode_tables(num_states)
    states = np.arange(num_states)
    r = np.sqrt(lam / alpha)
    # Transient eigenvectors scaled by min(1, r), which keeps them and
    # their squared norms O(1) at either end of λ/α: (n, S, B) and (n, B).
    low, high = np.minimum(r, 1.0)[:, None], np.minimum(1.0 / r, 1.0)[:, None]
    vecs = low[:, :, None] * sin_next - high[:, :, None] * sin_here
    norms = 0.5 * num_states * (low * low + high * high - 2.0 * low * high * cos_theta)
    mu = 2.0 * np.sqrt(lam * alpha)[:, None] * cos_theta - (lam + alpha)[:, None]
    start = vecs[np.arange(n), z] / norms  # v_z^(k) / |v^(k)|²
    # π_j ∝ r^{2j}, weighed from the end of the buffer the mass piles up
    # at, so no power exceeds one.
    top = np.where(r > 1.0, b, 0)
    weights = np.power(r[:, None], 2 * (states - top[:, None]))
    stationary = weights / weights.sum(axis=-1, keepdims=True)
    rows = np.empty((n, num_states + 1))
    rows[:, :num_states] = stationary + (
        vecs * (start * np.exp(mu * delta_t))[:, None, :]
    ).sum(axis=-1) * np.power(r[:, None], states - z[:, None])
    # The stationary mode integrates to Δt; μ_k < 0 on the others.
    transient = (start * vecs[:, b] * (np.expm1(mu * delta_t) / mu)).sum(axis=-1)
    rows[:, num_states] = lam * (
        stationary[:, b] * delta_t + np.power(r, b - z) * transient
    )
    return rows


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


class ExactPropagator:
    """Stateless exact epoch propagator (one :func:`propagate_laws` call
    per step, over every law of the stack)."""

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance laws ``(..., S)`` one epoch at their frozen rates;
        returns ``(ν_{t+1}, expected drops per queue)`` shaped
        ``(..., S)`` and ``(...)``."""
        nu_next, drops, _ = propagate_laws(
            nu, arrival_rates, self.service, self.delta_t
        )
        return nu_next, drops


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
    ) -> tuple[np.ndarray, np.ndarray]:
        """As :meth:`ExactPropagator.propagate`, from interpolated rows."""
        rows = self._rows(arrival_rates)
        nu_next, drops = _contract(
            np.asarray(nu, dtype=np.float64),
            rows[..., : self.num_states],
            rows[..., self.num_states],
        )
        return _on_simplex(nu_next), drops

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
