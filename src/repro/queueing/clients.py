"""Client/dispatcher layer: power-of-d sampling and rule application.

At each decision epoch every client ``i`` samples ``d`` queue indices
``x_i ~ Unif({1..M})^d`` (Eq. 3), observes the epoch-start states of its
sampled queues (the *anonymous state* ``z̄_i``), draws a slot
``u_i ~ h(·|z̄_i)`` (Eq. 4) and commits its jobs to queue ``x_i[u_i]``
for the epoch. The per-queue frozen arrival rates then follow Eq. (5):
``λ_j = M λ_t · count_j / N``.

Given the queue states the clients choose independently, each joining
queue ``j`` with probability ``λ_t(H, z_j) / (M λ_t)`` (the identity in
the proof of Theorem 1), so the counts are exactly
``Multinomial(N, p)``. The environments draw them that way
(:func:`committed_counts_multinomial`, ``O(E·M)`` per epoch); the
per-client sampler (:func:`sample_client_choices_batched`,
:func:`committed_counts_from_samples`) stays as the reference the law
tests compare against. Per-packet routing
(:func:`packet_fractions_from_samples`) still samples every client.

Everything is vectorized over ``E`` independent system replicas (queue
states shaped ``(E, M)``, one decision rule per replica); a single
system is the ``E = 1`` case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import unit_arrival_rates
from repro.utils.rng import as_generator

__all__ = [
    "stack_rules",
    "choice_probabilities",
    "committed_counts_multinomial",
    "infinite_client_rates_batched",
    "sample_client_choices_batched",
    "committed_counts_from_samples",
    "packet_fractions_from_samples",
]


def stack_rules(
    rules: "DecisionRule | Sequence[DecisionRule]", num_replicas: int
) -> np.ndarray:
    """Stack per-replica decision rules into one ``(E, S, ..., S, d)`` table.

    ``rules`` is either a single rule (broadcast to every replica — the
    stationary-policy fast path, a view with no copy) or a sequence of
    exactly ``num_replicas`` rules sharing ``(S, d)`` geometry.
    """
    if isinstance(rules, DecisionRule):
        return np.broadcast_to(
            rules.probs, (num_replicas, *rules.probs.shape)
        )
    rules = list(rules)
    if len(rules) != num_replicas:
        raise ValueError(
            f"need {num_replicas} rules (one per replica), got {len(rules)}"
        )
    shape = rules[0].probs.shape
    if any(r.probs.shape != shape for r in rules):
        raise ValueError("all per-replica rules must share (S, d) geometry")
    return np.stack([r.probs for r in rules])


def _batched_rule_rows(probs: np.ndarray, zbar: np.ndarray) -> np.ndarray:
    """Rows ``h_e(· | z̄)`` for per-replica sampled states.

    ``probs`` is a stacked rule table ``(E, S, ..., S, d)`` and ``zbar``
    an integer array ``(E, N, d)``; returns ``(E, N, d)``. The joint
    sampled state is flattened to one index per client so the lookup is
    a single flat :func:`numpy.take` (much faster than a ``d + 1``-axis
    fancy-indexing pass on large ``E·N``).
    """
    e = probs.shape[0]
    s = probs.shape[1]
    d = probs.ndim - 2
    flat = zbar[..., 0]
    for k in range(1, d):
        flat = flat * s + zbar[..., k]
    if probs.strides[0] == 0:
        # Stationary fast path: one shared table, no replica offsets.
        return probs[0].reshape(s**d, d).take(flat, axis=0)
    flat = flat + (np.arange(e) * s**d)[:, None]
    table = np.ascontiguousarray(probs).reshape(e * s**d, d)
    return table.take(flat, axis=0)


def _batched_sample_slots(
    rows: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``u ~ h(· | z̄)`` from per-client probability rows ``(E, N, d)``."""
    cdf = np.cumsum(rows, axis=-1)
    # Guard against round-off: the final cumulative value is exactly 1.
    cdf[..., -1] = 1.0
    uniforms = rng.random(rows.shape[:-1])
    return (uniforms[..., None] > cdf).sum(axis=-1)


def committed_counts_from_samples(
    observed: np.ndarray,
    sampled: np.ndarray,
    probs: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Committed-choice counts given already-sampled queue indices.

    The per-client reference of the committed *choose* stage
    (:meth:`~repro.queueing.backends.protocol.EpochKernel.committed_counts`):
    each client observes the states of its ``d`` sampled queues, draws
    one slot from its rule row (one ``rng.random((E, N))`` call) and
    commits to the chosen queue. The environments draw the same law
    with :func:`committed_counts_multinomial`.

    Parameters
    ----------
    observed : numpy.ndarray
        Per-queue observed states, shape ``(E, M)`` (queue fillings, or
        the flat ``z·C + c`` encoding of the heterogeneous system).
    sampled : numpy.ndarray
        Sampled queue indices, shape ``(E, N, d)``.
    probs : numpy.ndarray
        Stacked rule table from :func:`stack_rules`,
        shape ``(E, S, ..., S, d)``.
    rng : numpy.random.Generator
        Slot-selection stream.

    Returns
    -------
    numpy.ndarray
        Integer committed-client counts per queue, shape ``(E, M)``.
    """
    e, m = observed.shape
    offsets = (np.arange(e, dtype=sampled.dtype) * m)[:, None, None]
    zbar = observed.take((sampled + offsets).ravel()).reshape(sampled.shape)
    rows = _batched_rule_rows(probs, zbar)
    slots = _batched_sample_slots(rows, rng)
    committed = np.take_along_axis(sampled, slots[..., None], axis=-1)[..., 0]
    row_offsets = np.arange(e, dtype=committed.dtype)[:, None] * m
    return np.bincount(
        (committed + row_offsets).ravel(), minlength=e * m
    ).reshape(e, m)


def packet_fractions_from_samples(
    observed: np.ndarray,
    sampled: np.ndarray,
    probs: np.ndarray,
    num_clients: int,
) -> np.ndarray:
    """Per-packet routing fractions given already-sampled queue indices.

    The deterministic *choose* stage under per-packet randomization.
    The paper's experiments "allow randomization for each packet"
    (remark below Eq. 4): every packet re-samples its slot
    ``u ~ h(·|z̄_i)``, so by Poisson thinning queue ``j`` receives the
    fraction ``(1/N) Σ_i Σ_k 1{x_{i,k}=j} h(k|z̄_i)`` of the offered
    load — no stream consumption, and no per-client multinomial noise
    (which matters when ``N`` is *not* much larger than ``M``, paper
    Figure 6). Rows sum to 1.

    Parameters
    ----------
    observed : numpy.ndarray
        Per-queue observed states, shape ``(E, M)``.
    sampled : numpy.ndarray
        Sampled queue indices, shape ``(E, N, d)``.
    probs : numpy.ndarray
        Stacked rule table from :func:`stack_rules`.
    num_clients : int
        ``N`` — the normalizer of the accumulated weights.

    Returns
    -------
    numpy.ndarray
        Arrival-rate fractions per queue, shape ``(E, M)``.
    """
    e, m = observed.shape
    offsets = (np.arange(e, dtype=sampled.dtype) * m)[:, None, None]
    flat = (sampled + offsets).ravel()
    zbar = observed.take(flat).reshape(sampled.shape)
    rows = _batched_rule_rows(probs, zbar)
    fractions = np.bincount(
        flat, weights=rows.ravel(), minlength=e * m
    ).reshape(e, m)
    return fractions / num_clients


def sample_client_choices_batched(
    queue_states: np.ndarray,
    num_clients: int,
    rules: "DecisionRule | Sequence[DecisionRule]",
    rng=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample every client's selection and choice in ``E`` replicas at once.

    ``queue_states`` has shape ``(E, M)``; ``rules`` is one rule shared by
    all replicas or a sequence of ``E`` per-replica rules. Returns
    ``(sampled, slots, committed)`` shaped ``(E, N, d)`` / ``(E, N)`` /
    ``(E, N)``: the sampled queue indices (``x`` in the paper; sampling
    is with replacement, as in Eq. 3), the chosen slot per client
    (``u``) and the committed queue index per client (``x[u]``).
    """
    rng = as_generator(rng)
    queue_states = np.asarray(queue_states)
    if queue_states.ndim != 2:
        raise ValueError("queue_states must have shape (replicas, queues)")
    e, m = queue_states.shape
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    probs = stack_rules(rules, e)
    d = probs.ndim - 2
    sampled = rng.integers(0, m, size=(e, num_clients, d))
    offsets = (np.arange(e, dtype=sampled.dtype) * m)[:, None, None]
    zbar = queue_states.take((sampled + offsets).ravel()).reshape(sampled.shape)
    rows = _batched_rule_rows(probs, zbar)
    slots = _batched_sample_slots(rows, rng)
    committed = np.take_along_axis(sampled, slots[..., None], axis=-1)[..., 0]
    return sampled, slots, committed


def choice_probabilities(
    observed: np.ndarray,
    probs: np.ndarray,
    neighborhoods: np.ndarray | None = None,
) -> np.ndarray:
    """Probability that one client commits to each queue (Eq. 3-4).

    A client samples ``d`` queues uniformly with replacement from its
    dispatcher's neighborhood and routes by the rule. By the computation
    in the proof of Theorem 1 it commits to neighborhood queue ``j`` with
    probability ``λ_t(H, z_j) / (degree · λ_t)``, where ``H`` is the state
    distribution over the neighborhood: the same for every client of the
    dispatcher and independent of the arrival intensity.

    Parameters
    ----------
    observed : numpy.ndarray
        Per-queue observed states, shape ``(E, M)``.
    probs : numpy.ndarray
        Stacked rule table from :func:`stack_rules`,
        shape ``(E, S, ..., S, d)``.
    neighborhoods : numpy.ndarray, optional
        Queue indices ``(K, degree)`` each dispatcher samples from;
        ``None`` is one dispatcher sampling all ``M`` queues.

    Returns
    -------
    numpy.ndarray
        Shape ``(E, M)`` without neighborhoods, else ``(E, K, degree)``
        over each dispatcher's neighborhood; every row sums to 1.
    """
    observed = np.asarray(observed)
    e, m = observed.shape
    dense = neighborhoods is None
    if dense:
        neighborhoods = np.arange(m)[None, :]
    k, degree = neighborhoods.shape
    s = probs.shape[1]
    seen = observed[:, neighborhoods]
    offsets = np.arange(e * k, dtype=seen.dtype).reshape(e, k, 1) * s
    hists = np.bincount(
        (seen + offsets).ravel(), minlength=e * k * s
    ).reshape(e, k, s) / degree
    rates = np.take_along_axis(unit_arrival_rates(hists, probs), seen, axis=-1)
    # Normalizing, rather than dividing by the degree, absorbs the row-sum
    # round-off a valid rule may carry, so the probabilities sum to 1.
    p = rates / rates.sum(axis=-1, keepdims=True)
    return p[:, 0] if dense else p


def committed_counts_multinomial(
    observed: np.ndarray,
    probs: np.ndarray,
    num_clients: "int | np.ndarray",
    rng: np.random.Generator,
    neighborhoods: np.ndarray | None = None,
) -> np.ndarray:
    """Committed-client counts per queue, drawn from their exact law.

    Given the observed states the clients of one dispatcher choose
    independently with the probabilities of :func:`choice_probabilities`,
    so its per-queue counts are ``Multinomial(n_k, p_k)`` and the counts
    of a replica are the sum over dispatchers. One ``rng.multinomial``
    call of shape ``(E, K, degree)`` draws them all: ``O(E·K·degree)``
    work, where sampling every client is ``O(E·N·d)``.

    Parameters
    ----------
    observed : numpy.ndarray
        Per-queue observed states, shape ``(E, M)``.
    probs : numpy.ndarray
        Stacked rule table from :func:`stack_rules`.
    num_clients : int or numpy.ndarray
        ``N``, or the client count ``(K,)`` of every dispatcher.
    rng : numpy.random.Generator
        Consumes exactly one ``rng.multinomial`` call.
    neighborhoods : numpy.ndarray, optional
        Dispatcher neighborhoods ``(K, degree)`` with distinct queues per
        row; ``None`` is one dispatcher over all ``M`` queues.

    Returns
    -------
    numpy.ndarray
        Integer counts, shape ``(E, M)``, summing to ``N`` per row.
    """
    e, m = observed.shape
    if neighborhoods is None:
        neighborhoods = np.arange(m)[None, :]
    p = choice_probabilities(observed, probs, neighborhoods)
    draws = rng.multinomial(num_clients, p)
    flat = (neighborhoods + (np.arange(e) * m)[:, None, None]).ravel()
    return np.bincount(
        flat, weights=draws.ravel(), minlength=e * m
    ).reshape(e, m).astype(np.int64)


def infinite_client_rates_batched(
    queue_states: np.ndarray,
    rules: "DecisionRule | Sequence[DecisionRule]",
    lams: np.ndarray,
) -> np.ndarray:
    """Frozen ``N → ∞`` arrival rates for ``E`` replicas, shape ``(E, M)``.

    ``lams`` holds each replica's current arrival intensity. Client
    randomness averages out, so queue ``j`` receives its expected share
    ``M λ_t · P(client → j)`` of the offered load (Eq. 14-15).
    """
    queue_states = np.asarray(queue_states)
    if queue_states.ndim != 2:
        raise ValueError("queue_states must have shape (replicas, queues)")
    e, m = queue_states.shape
    lams = np.asarray(lams, dtype=np.float64)
    if lams.shape != (e,):
        raise ValueError(f"lams must have shape ({e},)")
    probs = stack_rules(rules, e)
    return m * lams[:, None] * choice_probabilities(queue_states, probs)
