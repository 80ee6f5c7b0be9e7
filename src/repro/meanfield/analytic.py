"""Closed-form queueing results used as ground truth in tests and checks.

Under the MF-RND rule with a *constant* arrival intensity ``λ`` every
queue in the mean-field limit is an independent M/M/1/B queue; its
stationary distribution and loss (Erlang-like) probability are classic
textbook formulas. These functions anchor the property tests: the
simulated and exactly-discretized systems must converge to them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mm1b_stationary_distribution",
    "mm1b_loss_probability",
    "mm1b_drop_rate",
    "mmpp_stationary_distribution",
]


def mm1b_stationary_distribution(
    arrival: float, service: float, buffer_size: int
) -> np.ndarray:
    """Stationary law of the M/M/1/B queue on ``{0, ..., B}``.

    ``π(z) ∝ ρ^z`` with ``ρ = arrival / service``; the ``ρ = 1`` case is
    uniform.
    """
    if arrival < 0 or service <= 0:
        raise ValueError("need arrival >= 0 and service > 0")
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    rho = arrival / service
    states = np.arange(buffer_size + 1)
    if np.isclose(rho, 1.0):
        return np.full(buffer_size + 1, 1.0 / (buffer_size + 1))
    weights = rho**states
    return weights / weights.sum()


def mm1b_loss_probability(
    arrival: float, service: float, buffer_size: int
) -> float:
    """Stationary probability that an arriving packet finds the buffer full.

    By PASTA this equals ``π(B)``.
    """
    return float(mm1b_stationary_distribution(arrival, service, buffer_size)[-1])


def mm1b_drop_rate(arrival: float, service: float, buffer_size: int) -> float:
    """Stationary drop *rate* (packets lost per unit time per queue)."""
    return arrival * mm1b_loss_probability(arrival, service, buffer_size)


def mmpp_stationary_distribution(transition_matrix: np.ndarray) -> np.ndarray:
    """Stationary distribution of a finite discrete-time Markov chain.

    Solves ``π P = π`` via the eigenvector of ``P^T`` at eigenvalue 1;
    used for the modulating chain of Eq. (32)-(33), whose stationary law
    is ``(5/7, 2/7)`` over (high, low).
    """
    p = np.asarray(transition_matrix, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0):
        raise ValueError("rows must be probability vectors")
    eigvals, eigvecs = np.linalg.eig(p.T)
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    pi = np.real(eigvecs[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()
