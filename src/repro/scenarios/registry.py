"""Named, frozen scenario specifications for the experiment harness.

A *scenario* is everything the sweep orchestrator needs to evaluate one
workload: a base :class:`repro.config.SystemConfig`, a policy suite, the
environment class/kwargs, and default sweep grids. Registering a
scenario turns a workload into a name —
``python -m repro.experiments.cli scenario <name>`` — instead of a fork
of the figure runners, which is how the related-work directions
(heterogeneous servers, bursty arrivals, overload stress) plug into the
same sharded Monte-Carlo machinery as the paper's own figures. Figures 5
and 6 are themselves the ``paper-baseline`` scenario, swept at each
panel's ``M`` and client rule.

Specs are frozen dataclasses: a registered scenario never mutates, so a
name always denotes the same experiment. Mutable experiment inputs
(policy suites, environment kwargs such as arrival processes) are
produced by builder callables invoked fresh per sweep point, keeping the
spec itself immutable and cheap to import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.config import SystemConfig

if TYPE_CHECKING:
    from repro.policies.base import UpperLevelPolicy
    from repro.serving.control import Controller

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "scenario_summaries",
]

_REGISTRY: dict[str, "ScenarioSpec"] = {}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload: config, policies, environment, default grids.

    Attributes
    ----------
    name:
        Registry key (kebab-case, e.g. ``"heterogeneous-sed"``).
    description:
        One-line summary shown by ``scenario list``.
    base_config:
        System parameters at the default scale; per-sweep-point configs
        are derived via :meth:`config_for`.
    delta_ts:
        Default synchronization-delay grid.
    num_runs:
        Default Monte-Carlo replicas per sweep point.
    build_policies:
        ``config -> {name: policy}`` builder for the comparison suite,
        invoked once per sweep point (the config carries that point's
        ``delta_t``).
    env_cls:
        Environment class handed to the runner (``None`` selects the
        standard batched finite-system environment).
    build_env_kwargs:
        Optional ``config -> kwargs`` builder for environment
        construction (server-class specs, arrival processes, ...).
    clients_of_m:
        ``M -> N`` rule applied when the queue count is overridden;
        defaults to the paper's ``N = M²``.
    build_controllers:
        Optional ``(config, policies) -> {name: controller}`` builder
        for the scenario's closed-loop controller suite
        (:mod:`repro.serving.control`), invoked fresh per stream;
        ``None`` means the scenario offers no controllers.
    max_batch_replicas:
        Replica chunk size for the batched backend (also the shard
        granularity of the parallel executor).
    tags:
        Free-form labels (``"paper"``, ``"stress"``, ...).
    """

    name: str
    description: str
    base_config: SystemConfig
    delta_ts: tuple[float, ...]
    num_runs: int
    build_policies: "Callable[[SystemConfig], dict[str, UpperLevelPolicy]]"
    env_cls: type | None = None
    build_env_kwargs: "Callable[[SystemConfig], dict] | None" = None
    clients_of_m: "Callable[[int], int] | None" = None
    build_controllers: (
        "Callable[[SystemConfig, dict[str, UpperLevelPolicy]],"
        " dict[str, Controller]] | None"
    ) = None
    max_batch_replicas: int = 64
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.delta_ts:
            raise ValueError("scenario needs a non-empty delta_t grid")
        if any(dt <= 0 for dt in self.delta_ts):
            raise ValueError("delta_ts must be positive")
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if self.max_batch_replicas < 1:
            raise ValueError("max_batch_replicas must be >= 1")

    def config_for(
        self, delta_t: float, num_queues: int | None = None
    ) -> SystemConfig:
        """The sweep-point config: base config at ``delta_t``, optionally
        rescaled to ``num_queues`` with ``N`` following the client rule."""
        changes: dict = {"delta_t": float(delta_t)}
        if num_queues is not None:
            rule = self.clients_of_m or (lambda m: m * m)
            changes["num_queues"] = int(num_queues)
            changes["num_clients"] = int(rule(int(num_queues)))
        return self.base_config.with_updates(**changes)

    def env_kwargs_for(self, config: SystemConfig) -> dict:
        """Environment kwargs for one sweep point (fresh per call)."""
        if self.build_env_kwargs is None:
            return {}
        return dict(self.build_env_kwargs(config))


def register_scenario(
    spec: ScenarioSpec, overwrite: bool = False
) -> ScenarioSpec:
    """Add ``spec`` to the registry (rejecting silent redefinition)."""
    if not overwrite and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario; unknown names list the available ones."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown scenario {name!r}; available: {known}"
        ) from None


def available_scenarios() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def scenario_summaries() -> list[tuple[str, str, str, str]]:
    """``(name, ρ, grid, description)`` rows for the CLI listing."""
    rows = []
    for name in available_scenarios():
        spec = _REGISTRY[name]
        grid = (
            f"Δt∈{{{', '.join(f'{dt:g}' for dt in spec.delta_ts)}}}, "
            f"M={spec.base_config.num_queues}, "
            f"N={spec.base_config.num_clients}, n={spec.num_runs}"
        )
        rows.append(
            (name, f"{spec.base_config.offered_load:.2f}", grid, spec.description)
        )
    return rows
