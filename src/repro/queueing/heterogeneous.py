"""Heterogeneous-server extension (paper §5: future-work item).

Servers come in ``C`` classes with per-class service rates; clients
observe, for each sampled queue, the pair ``(z, c)`` of queue filling
and server class. We encode the pair as a single *observed state*
``o = z · C + c`` so the entire homogeneous machinery — decision rules,
per-state arrival rates, client sampling, the lock-step CTMC simulator —
is reused unchanged with ``S·C`` observed states. Only the service rate
consumed by the queue CTMC depends on the class.

The natural baseline in this setting is SED(d)
(Shortest-Expected-Delay): route to the sampled queue minimizing
``(z + 1) / α_c``, which reduces to JSQ(d) for homogeneous rates.

Simulation runs through the replica-batched backend:
:class:`BatchedHeterogeneousFiniteEnv` is the ``E``-replica system
(queue states ``(E, M)``, one kernel pass per epoch — a drop-in
``env_cls`` for :func:`repro.experiments.runner.evaluate_policy_finite`
and the sharded :class:`repro.experiments.parallel.SweepExecutor`); a
single system is its ``E = 1`` case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.queueing.arrivals import MarkovModulatedRate
from repro.queueing.batched_env import _BatchedQueueSystemBase

__all__ = [
    "ServerClassSpec",
    "sed_rule",
    "jsq_rule_heterogeneous",
    "rnd_rule_heterogeneous",
    "sed_policy_suite",
    "BatchedHeterogeneousFiniteEnv",
]


@dataclass(frozen=True)
class ServerClassSpec:
    """Server classes: rates and population fractions.

    ``service_rates[c]`` is class ``c``'s rate; ``fractions[c]`` the
    fraction of the ``M`` queues in that class (must sum to 1).
    """

    service_rates: tuple[float, ...]
    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.service_rates) != len(self.fractions):
            raise ValueError("need one fraction per service rate")
        if len(self.service_rates) < 1:
            raise ValueError("need at least one server class")
        if any(r <= 0 for r in self.service_rates):
            raise ValueError("service rates must be > 0")
        if any(f < 0 for f in self.fractions) or not np.isclose(
            sum(self.fractions), 1.0
        ):
            raise ValueError("fractions must form a probability vector")

    @property
    def num_classes(self) -> int:
        return len(self.service_rates)

    # -- observed-state encoding -----------------------------------------
    def num_observed_states(self, buffer_size: int) -> int:
        return (buffer_size + 1) * self.num_classes

    def encode(self, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Pack ``(filling, class)`` into the flat observed state."""
        return np.asarray(z) * self.num_classes + np.asarray(c)

    def decode(self, observed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        observed = np.asarray(observed)
        return observed // self.num_classes, observed % self.num_classes

    def assign_classes(self, num_queues: int) -> np.ndarray:
        """Deterministic class assignment matching the fractions as
        closely as integer counts allow (largest-remainder rounding)."""
        raw = np.asarray(self.fractions) * num_queues
        counts = np.floor(raw).astype(int)
        remainder = num_queues - counts.sum()
        if remainder > 0:
            order = np.argsort(-(raw - counts))
            counts[order[:remainder]] += 1
        classes = np.repeat(np.arange(self.num_classes), counts)
        return classes

    def mean_service_rate(self) -> float:
        return float(
            np.asarray(self.fractions) @ np.asarray(self.service_rates)
        )


def _rule_from_scorer(
    spec: ServerClassSpec, buffer_size: int, d: int, scorer
) -> DecisionRule:
    """Build a deterministic rule minimizing ``scorer(z, c)`` per slot."""
    s_obs = spec.num_observed_states(buffer_size)
    shape = (s_obs,) * d + (d,)
    probs = np.zeros(shape)
    for obar in itertools.product(range(s_obs), repeat=d):
        z, c = spec.decode(np.asarray(obar))
        scores = np.asarray([scorer(int(zi), int(ci)) for zi, ci in zip(z, c)])
        minimal = scores == scores.min()
        probs[obar] = minimal / minimal.sum()
    return DecisionRule(probs)


def sed_rule(spec: ServerClassSpec, buffer_size: int, d: int) -> DecisionRule:
    """SED(d): minimize expected delay ``(z + 1) / α_c`` over the samples."""
    return _rule_from_scorer(
        spec, buffer_size, d, lambda z, c: (z + 1) / spec.service_rates[c]
    )


def jsq_rule_heterogeneous(
    spec: ServerClassSpec, buffer_size: int, d: int
) -> DecisionRule:
    """JSQ(d) on the observed states (class-blind: minimizes ``z``)."""
    return _rule_from_scorer(spec, buffer_size, d, lambda z, c: float(z))


def rnd_rule_heterogeneous(
    spec: ServerClassSpec, buffer_size: int, d: int
) -> DecisionRule:
    """Uniform routing on the observed states."""
    return DecisionRule.uniform(spec.num_observed_states(buffer_size), d)


def sed_policy_suite(
    spec: ServerClassSpec, buffer_size: int, d: int
) -> dict[str, "object"]:
    """The heterogeneous comparison set: SED(d), class-blind JSQ(d), RND.

    Each rule is wrapped in a stationary
    :class:`repro.policies.static.ConstantRulePolicy` operating on the
    flat ``Z × C`` observed states, ready for
    :func:`repro.experiments.runner.evaluate_policy_finite` with
    ``env_cls=BatchedHeterogeneousFiniteEnv``.
    """
    from repro.policies.static import ConstantRulePolicy

    return {
        f"SED({d})": ConstantRulePolicy(
            sed_rule(spec, buffer_size, d), name=f"SED({d})"
        ),
        f"JSQ({d})": ConstantRulePolicy(
            jsq_rule_heterogeneous(spec, buffer_size, d), name=f"JSQ({d})"
        ),
        "RND": ConstantRulePolicy(
            rnd_rule_heterogeneous(spec, buffer_size, d), name="RND"
        ),
    }


class BatchedHeterogeneousFiniteEnv(_BatchedQueueSystemBase):
    """``E`` replicas of the finite ``N, M`` system with ``C`` server classes.

    Decision rules operate on observed states ``o = z·C + c`` and the
    empirical distribution lives on ``Z × C``; otherwise the lock-step
    mechanics are exactly those of
    :class:`repro.queueing.batched_env.BatchedFiniteSystemEnv` — every
    replica shares the deterministic class assignment (largest-remainder
    rounding of the spec's fractions) and its induced per-queue service
    rates.
    """

    def __init__(
        self,
        config: SystemConfig,
        spec: ServerClassSpec,
        num_replicas: int = 1,
        arrival_process: MarkovModulatedRate | None = None,
        infinite_clients: bool = False,
        per_packet_randomization: bool = False,
        seed=None,
        backend: str | None = None,
        chaos=None,
    ) -> None:
        classes = spec.assign_classes(config.num_queues)
        super().__init__(
            config,
            num_replicas=num_replicas,
            arrival_process=arrival_process,
            service_rates=np.asarray(spec.service_rates)[classes],
            per_packet_randomization=per_packet_randomization,
            seed=seed,
            backend=backend,
            chaos=chaos,
        )
        self.spec = spec
        self.classes = classes
        self.infinite_clients = infinite_clients

    @property
    def num_observed_states(self) -> int:
        return self.spec.num_observed_states(self.config.buffer_size)

    def observed_states(self) -> np.ndarray:
        """Flat ``(E, M)`` observed states ``o = z·C + c``."""
        if self._states is None:
            raise RuntimeError("environment must be reset before use")
        return self._encode(self._states)

    def empirical_distributions(self) -> np.ndarray:
        """Per-replica distribution over ``Z × C``, shape ``(E, S·C)``."""
        s_obs = self.num_observed_states
        observed = self.observed_states()
        offsets = np.arange(self.num_replicas, dtype=np.int64)[:, None] * s_obs
        counts = np.bincount(
            (observed + offsets).ravel(),
            minlength=self.num_replicas * s_obs,
        ).reshape(self.num_replicas, s_obs)
        return counts.astype(np.float64) / self.config.num_queues

    def _check_rules(self, rules) -> None:
        first = rules if isinstance(rules, DecisionRule) else rules[0]
        if first.num_states != self.num_observed_states or first.d != self.config.d:
            raise ValueError(
                "rule geometry does not match the heterogeneous system "
                f"(expected S={self.num_observed_states}, d={self.config.d}, "
                f"got S={first.num_states}, d={first.d})"
            )

    def _encode(self, states: np.ndarray) -> np.ndarray:
        return self.spec.encode(states, self.classes[None, :])
