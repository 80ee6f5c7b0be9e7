"""Exact one-epoch law of the committed choose stage.

Given the queue states, the clients of a dispatcher sample and choose
independently and identically (Eq. 3-4), so the committed counts of a
replica are ``Multinomial(N, p)`` — a sum of per-dispatcher
multinomials on sparse graphs — with ``p`` from
:func:`repro.queueing.clients.choice_probabilities`. For tiny systems
these tests derive the law of the count vector by enumerating every
per-client outcome (each sample tuple and each slot of the rule), compare
it with that pmf, and G-test the counts the environments draw against it.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.queueing.arrivals import ScriptedRate
from repro.queueing.batched_env import BatchedFiniteSystemEnv
from repro.queueing.clients import choice_probabilities, stack_rules
from repro.queueing.graph_env import BatchedGraphFiniteEnv
from repro.queueing.topology import TopologySpec

#: Largest pmf gap tolerated between enumeration and the multinomial.
TOL = 1e-12
#: ``(M, N, S)`` systems of the dense grid.
DENSE_GRID = [(1, 3, 2), (2, 4, 3), (3, 2, 2), (3, 4, 3)]
#: Per-test false-alarm level of the G-tests: a correct sampler fails one
#: with probability 1e-3 over seeds (the seeds below are fixed).
ALPHA = 1e-3


def dirichlet_rule(num_states, d, rng):
    """A rule with Dirichlet(1) rows: every slot keeps positive mass."""
    return DecisionRule(rng.dirichlet(np.ones(d), size=(num_states,) * d))


def client_law(states, table, neighborhood, num_queues):
    """Committed-queue pmf of one client: every sample tuple of its
    neighborhood (uniform, with replacement) times every rule slot."""
    d = table.ndim - 1
    law = np.zeros(num_queues)
    weight = 1.0 / len(neighborhood) ** d
    for sample in itertools.product(neighborhood, repeat=d):
        row = table[tuple(states[q] for q in sample)]
        for slot, queue in enumerate(sample):
            law[queue] += weight * row[slot]
    return law


def count_law(client_laws):
    """Law of the count vector of independent clients, ``{counts: prob}``,
    by enumerating every joint outcome."""
    m = len(client_laws[0])
    law: dict = {}
    for choice in itertools.product(range(m), repeat=len(client_laws)):
        prob = math.prod(c[q] for c, q in zip(client_laws, choice))
        counts = tuple(np.bincount(choice, minlength=m).tolist())
        law[counts] = law.get(counts, 0.0) + prob
    return law


def multinomial_law(n, p, queues, num_queues):
    """``Multinomial(n, p)`` spread over ``queues``, ``{counts: pmf}``."""
    law: dict = {}
    for cell in itertools.product(range(n + 1), repeat=len(p)):
        if sum(cell) != n:
            continue
        pmf = math.factorial(n) * math.prod(
            pi**c / math.factorial(c) for pi, c in zip(p, cell)
        )
        counts = np.zeros(num_queues, dtype=int)
        np.add.at(counts, queues, cell)
        key = tuple(counts.tolist())
        law[key] = law.get(key, 0.0) + pmf
    return law


def dispatcher_sum_law(probs, clients, neighborhoods, num_queues):
    """Law of the summed per-dispatcher multinomials."""
    law = {(0,) * num_queues: 1.0}
    for p, n, queues in zip(probs, clients, neighborhoods):
        part = multinomial_law(int(n), p, queues, num_queues)
        merged: dict = {}
        for a, pa in law.items():
            for b, pb in part.items():
                key = tuple(x + y for x, y in zip(a, b))
                merged[key] = merged.get(key, 0.0) + pa * pb
        law = merged
    return law


def max_gap(a, b):
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def _rules(kind, num_states, d, shared, rng):
    if kind == "jsq":
        # JSQ splits ties evenly; the per-replica pair adds the
        # tie-splitting longest-queue rule.
        rules = [
            DecisionRule.join_shortest(num_states, d),
            DecisionRule.join_longest(num_states, d),
        ]
    else:
        rules = [dirichlet_rule(num_states, d, rng) for _ in range(2)]
    return rules[0] if shared else rules


class TestExactLaw:
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-replica"])
    @pytest.mark.parametrize("kind", ["dirichlet", "jsq"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dense_counts_are_multinomial(self, d, kind, shared):
        rng = np.random.default_rng([d, len(kind), shared])
        worst = 0.0
        for m, n, s in DENSE_GRID:
            for _ in range(3):
                states = rng.integers(0, s, size=(2, m))
                probs = stack_rules(_rules(kind, s, d, shared, rng), 2)
                p = choice_probabilities(states, probs)
                assert p.shape == (2, m)
                for e in range(2):
                    one = client_law(states[e], probs[e], range(m), m)
                    exact = count_law([one] * n)
                    law = multinomial_law(n, p[e], np.arange(m), m)
                    worst = max(worst, max_gap(exact, law))
        assert worst < TOL

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ring_counts_are_summed_dispatcher_multinomials(self, d, n):
        """Radius-1 ring on 4 queues: each client samples the 3 queues
        around its dispatcher, so the law is a sum of per-dispatcher
        multinomials over different neighborhoods."""
        ring = TopologySpec.ring(4, radius=1)
        dispatchers = ring.client_dispatchers(n)
        clients = np.bincount(dispatchers, minlength=ring.num_dispatchers)
        rng = np.random.default_rng([d, n])
        worst = 0.0
        for _ in range(5):
            states = rng.integers(0, 3, size=(1, 4))
            rule = dirichlet_rule(3, d, rng)
            exact = count_law(
                [
                    client_law(states[0], rule.probs, ring.neighbors[k], 4)
                    for k in dispatchers
                ]
            )
            p = choice_probabilities(states, stack_rules(rule, 1), ring.neighbors)
            law = dispatcher_sum_law(p[0], clients, ring.neighbors, 4)
            worst = max(worst, max_gap(exact, law))
        assert worst < TOL

    def test_graph_env_merges_equal_neighborhoods_exactly(self):
        """Dispatchers reaching the same queues share one draw; the law of
        the merged draws is still the enumerated law."""
        top = TopologySpec("bipartite", 3, np.array([[0, 1], [1, 0], [1, 2]]))
        config = SystemConfig(num_clients=4, num_queues=3, buffer_size=2)
        env = BatchedGraphFiniteEnv(config, top, num_replicas=1)
        groups, clients = env._dispatchers()
        assert groups.tolist() == [[0, 1], [1, 2]]
        assert clients.tolist() == [3, 1]
        rng = np.random.default_rng(3)
        states = np.array([[2, 0, 1]])
        rule = dirichlet_rule(3, 2, rng)
        exact = count_law(
            [
                client_law(states[0], rule.probs, top.neighbors[k], 3)
                for k in top.client_dispatchers(4)
            ]
        )
        p = choice_probabilities(states, stack_rules(rule, 1), groups)
        assert max_gap(exact, dispatcher_sum_law(p[0], clients, groups, 3)) < TOL


def g_test_p_value(draws, law):
    """G-test p-value of drawn count vectors against ``law``.

    Outcomes expected fewer than 5 times are pooled into one bin so the
    chi-square approximation of the statistic holds.
    """
    tally = Counter(map(tuple, draws.tolist()))
    assert set(tally) <= {k for k, v in law.items() if v > 0}
    keys = sorted(law)
    expected = np.array([law[k] for k in keys]) * len(draws)
    observed = np.array([tally.get(k, 0) for k in keys], dtype=float)
    small = expected < 5
    if small.any():
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
    seen = observed > 0
    g = 2.0 * np.sum(observed[seen] * np.log(observed[seen] / expected[seen]))
    return float(stats.chi2.sf(g, df=expected.size - 1))


class TestEnvironmentDraws:
    """One epoch of 20,000 replicas in identical states gives 20,000
    independent count vectors, G-tested against the exact law."""

    REPLICAS = 20_000
    LAM = 0.9

    def _drawn_counts(self, env, states):
        env.reset(seed=0)
        env._states = np.tile(states, (self.REPLICAS, 1))
        rule = dirichlet_rule(3, 2, np.random.default_rng(5))
        _, _, info = env.step(rule)
        config = env.config
        raw = info["arrival_rates"] * config.num_clients / (
            config.num_queues * self.LAM
        )
        counts = np.rint(raw).astype(np.int64)
        np.testing.assert_allclose(raw, counts, atol=1e-9)
        return counts, rule

    def test_dense_env_counts_pass_g_test(self):
        config = SystemConfig(num_clients=4, num_queues=3, buffer_size=2)
        env = BatchedFiniteSystemEnv(
            config,
            num_replicas=self.REPLICAS,
            arrival_process=ScriptedRate([self.LAM], [0]),
            seed=2022,
        )
        states = np.array([0, 2, 1])
        counts, rule = self._drawn_counts(env, states)
        one = client_law(states, rule.probs, range(3), 3)
        assert g_test_p_value(counts, count_law([one] * 4)) > ALPHA

    def test_ring_env_counts_pass_g_test(self):
        config = SystemConfig(num_clients=4, num_queues=4, buffer_size=2)
        ring = TopologySpec.ring(4, radius=1)
        env = BatchedGraphFiniteEnv(
            config,
            ring,
            num_replicas=self.REPLICAS,
            arrival_process=ScriptedRate([self.LAM], [0]),
            seed=2022,
        )
        states = np.array([0, 2, 1, 2])
        counts, rule = self._drawn_counts(env, states)
        exact = count_law(
            [
                client_law(states, rule.probs, ring.neighbors[k], 4)
                for k in ring.client_dispatchers(4)
            ]
        )
        assert g_test_p_value(counts, exact) > ALPHA
