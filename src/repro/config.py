"""Configuration layer: the paper's Table 1 (system) and Table 2 (PPO).

Every experiment in the reproduction is driven by two frozen dataclasses:

* :class:`SystemConfig` — the load-balancing system of Section 2 and
  Table 1: ``N`` clients, ``M`` queues with buffer ``B`` and service rate
  ``alpha``, power-of-``d`` sampling, synchronization delay ``delta_t``
  and the two-level Markov-modulated arrival process of Eq. (32)-(33).
* :class:`PPOConfig` — the RL hyperparameters of Table 2, matching the
  RLlib PPO configuration used by the authors.

Both validate their fields eagerly so that a bad experiment definition
fails at construction time, not hours into a sweep, and both round-trip
through plain dictionaries for checkpointing.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any

__all__ = [
    "SystemConfig",
    "PPOConfig",
    "paper_system_config",
    "paper_ppo_config",
    "TABLE1_ROWS",
    "TABLE2_ROWS",
]


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """System parameters of the delayed-information load balancer (Table 1).

    Attributes
    ----------
    num_clients:
        ``N`` — number of dispatchers. Paper range: ``1e3`` to ``1e6``.
    num_queues:
        ``M`` — number of parallel servers/queues. Paper: 100 to 1000.
    buffer_size:
        ``B`` — maximum jobs a queue holds; queue state space is
        ``Z = {0, ..., B}``.
    d:
        Power-of-``d`` fan-out: queues sampled per client per epoch.
    service_rate:
        ``alpha`` — exponential service rate of every (homogeneous) server.
    arrival_rate_high / arrival_rate_low:
        The two levels ``(lambda_h, lambda_l)`` of the Markov-modulated
        per-queue arrival intensity (system-wide rate is ``M * lambda_t``).
    p_high_to_low / p_low_to_high:
        Transition probabilities of the modulating chain, Eq. (32)-(33).
    delta_t:
        Synchronization delay ``Δt``: queue states are broadcast and
        decision rules are refreshed only every ``delta_t`` time units.
    episode_length:
        ``T`` — decision epochs per *training* episode.
    eval_episode_length:
        ``T_e`` — decision epochs per evaluation episode. The paper uses
        ``round(500 / delta_t)`` so that each evaluation covers the same
        ~500 time units irrespective of ``delta_t``; ``None`` selects
        that default lazily via :meth:`resolved_eval_length`.
    monte_carlo_runs:
        ``n`` — independent evaluation repetitions.
    drop_penalty:
        Cost per dropped job (paper: 1).
    initial_state:
        Queue starting state; paper uses ``nu_0 = [1, 0, ..., 0]``, i.e.
        all queues start empty (state 0).
    """

    num_clients: int = 10_000
    num_queues: int = 100
    buffer_size: int = 5
    d: int = 2
    service_rate: float = 1.0
    arrival_rate_high: float = 0.9
    arrival_rate_low: float = 0.6
    p_high_to_low: float = 0.2
    p_low_to_high: float = 0.5
    delta_t: float = 1.0
    episode_length: int = 500
    eval_episode_length: int | None = None
    monte_carlo_runs: int = 100
    drop_penalty: float = 1.0
    initial_state: int = 0

    def __post_init__(self) -> None:
        # ``delta_t=1`` and ``delta_t=1.0`` are one experiment: store
        # numbers in float fields as floats so both fingerprint (and
        # cache) alike. Anything else still fails the checks below.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and isinstance(value, numbers.Real):
                object.__setattr__(self, field.name, float(value))
        _check_positive("num_clients", self.num_clients)
        _check_positive("num_queues", self.num_queues)
        if self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if not 1 <= self.d:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.d > self.num_queues:
            raise ValueError(
                f"d={self.d} cannot exceed num_queues={self.num_queues}"
            )
        _check_positive("service_rate", self.service_rate)
        _check_positive("arrival_rate_high", self.arrival_rate_high)
        _check_positive("arrival_rate_low", self.arrival_rate_low)
        _check_probability("p_high_to_low", self.p_high_to_low)
        _check_probability("p_low_to_high", self.p_low_to_high)
        _check_positive("delta_t", self.delta_t)
        _check_positive("episode_length", self.episode_length)
        if self.eval_episode_length is not None:
            _check_positive("eval_episode_length", self.eval_episode_length)
        _check_positive("monte_carlo_runs", self.monte_carlo_runs)
        if self.drop_penalty < 0:
            raise ValueError("drop_penalty must be >= 0")
        if not 0 <= self.initial_state <= self.buffer_size:
            raise ValueError(
                f"initial_state must lie in [0, {self.buffer_size}], "
                f"got {self.initial_state}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_queue_states(self) -> int:
        """``|Z| = B + 1`` — size of the single-queue state space."""
        return self.buffer_size + 1

    @property
    def arrival_levels(self) -> tuple[float, float]:
        """``(lambda_h, lambda_l)`` in paper order (high first)."""
        return (self.arrival_rate_high, self.arrival_rate_low)

    @property
    def stationary_arrival_rate(self) -> float:
        """Long-run mean per-queue arrival intensity ``E[λ_t]``.

        The two-level modulating chain of Eq. (32)-(33) has stationary
        distribution ``(π_h, π_l) ∝ (p_low_to_high, p_high_to_low)``;
        degenerate chains (both switching probabilities zero) fall back
        to the uniform initial distribution ``λ_0 ~ Unif({λ_h, λ_l})``.
        """
        total = self.p_high_to_low + self.p_low_to_high
        if total == 0.0:
            pi_high = 0.5
        else:
            pi_high = self.p_low_to_high / total
        return (
            pi_high * self.arrival_rate_high
            + (1.0 - pi_high) * self.arrival_rate_low
        )

    @property
    def offered_load(self) -> float:
        """Stationary per-server utilization ``ρ = E[λ_t] / α``.

        ``ρ > 1`` means the system is in overload: queues saturate and
        drops are unavoidable regardless of the routing policy (the
        regime stressed by the ``overload`` scenario).
        """
        return self.stationary_arrival_rate / self.service_rate

    def resolved_eval_length(self) -> int:
        """``T_e``: explicit value, else the paper's ``round(500/Δt)``."""
        if self.eval_episode_length is not None:
            return self.eval_episode_length
        return max(1, round(500.0 / self.delta_t))

    def total_eval_time(self) -> float:
        """Wall-clock (model-time) span of one evaluation episode."""
        return self.resolved_eval_length() * self.delta_t

    def with_updates(self, **changes: Any) -> "SystemConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SystemConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown SystemConfig fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class PPOConfig:
    """PPO hyperparameters (paper Table 2, RLlib conventions).

    ``gamma`` is the MDP discount factor of the objective (Eq. 7/31); the
    remaining fields configure the clipped-surrogate optimization. The
    paper's RLlib setup uses *both* the clip and an (adaptive) KL penalty
    whose initial coefficient is ``kl_coeff`` and whose target is
    ``kl_target``; we mirror that behaviour.

    The four *hardening knobs* below the Table 2 block follow standard
    RLlib/torchrl practice for long training campaigns; each defaults to
    ``None`` (off), and off reproduces the paper's update bit for bit
    (pinned by the golden traces in ``tests/test_training_determinism.py``):

    * ``kl_coeff_bounds`` — clamp the adaptively updated KL coefficient
      into ``[lo, hi]`` so a mis-scaled warmup cannot run ``beta`` to
      zero or infinity.
    * ``kl_early_stop_factor`` — stop the SGD epochs of an iteration as
      soon as the full-batch KL exceeds ``factor * kl_target`` (the
      update has left the trust region; further minibatches only make it
      worse).
    * ``clip_param_final`` / ``clip_decay_iters`` — linearly decay the
      surrogate clip ``epsilon`` from ``clip_param`` to
      ``clip_param_final`` over ``clip_decay_iters`` iterations
      (monotone, then constant). Both must be set together.
    * ``value_clamp_param`` — clip the critic's predicted value to a
      ``+- delta`` band around its pre-update prediction and take the
      elementwise *minimum* of the clamped and unclamped squared errors,
      so the clamp can limit an update but never widen the loss.
    """

    gamma: float = 0.99
    gae_lambda: float = 1.0
    kl_coeff: float = 0.2
    kl_target: float = 0.01
    clip_param: float = 0.3
    learning_rate: float = 5e-5
    train_batch_size: int = 4000
    minibatch_size: int = 128
    num_epochs: int = 30
    value_loss_coeff: float = 1.0
    value_clip_param: float = 10.0
    entropy_coeff: float = 0.0
    grad_clip: float = 40.0
    hidden_sizes: tuple[int, ...] = (256, 256)
    # Free-log-std Gaussian head as in RLlib's default continuous policy.
    initial_log_std: float = 0.0
    seed: int = 0
    # Hardening knobs (None = off = the paper's exact update).
    kl_coeff_bounds: tuple[float, float] | None = None
    kl_early_stop_factor: float | None = None
    clip_param_final: float | None = None
    clip_decay_iters: int | None = None
    value_clamp_param: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0,1], got {self.gae_lambda}")
        if self.kl_coeff < 0:
            raise ValueError("kl_coeff must be >= 0")
        _check_positive("kl_target", self.kl_target)
        _check_positive("clip_param", self.clip_param)
        _check_positive("learning_rate", self.learning_rate)
        _check_positive("train_batch_size", self.train_batch_size)
        _check_positive("minibatch_size", self.minibatch_size)
        if self.minibatch_size > self.train_batch_size:
            raise ValueError(
                "minibatch_size cannot exceed train_batch_size "
                f"({self.minibatch_size} > {self.train_batch_size})"
            )
        _check_positive("num_epochs", self.num_epochs)
        if self.value_loss_coeff < 0 or self.entropy_coeff < 0:
            raise ValueError("loss coefficients must be >= 0")
        _check_positive("grad_clip", self.grad_clip)
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be a non-empty tuple of >=1 ints")
        if not math.isfinite(self.initial_log_std):
            raise ValueError("initial_log_std must be finite")
        if self.kl_coeff_bounds is not None:
            if len(self.kl_coeff_bounds) != 2:
                raise ValueError("kl_coeff_bounds must be a (lo, hi) pair")
            lo, hi = self.kl_coeff_bounds
            if not 0.0 <= lo < hi:
                raise ValueError(
                    f"kl_coeff_bounds needs 0 <= lo < hi, got ({lo}, {hi})"
                )
        if self.kl_early_stop_factor is not None:
            _check_positive("kl_early_stop_factor", self.kl_early_stop_factor)
        if (self.clip_param_final is None) != (self.clip_decay_iters is None):
            raise ValueError(
                "clip_param_final and clip_decay_iters must be set together"
            )
        if self.clip_param_final is not None:
            if not 0.0 < self.clip_param_final <= self.clip_param:
                raise ValueError(
                    "clip_param_final must lie in (0, clip_param], got "
                    f"{self.clip_param_final} (clip_param={self.clip_param})"
                )
            _check_positive("clip_decay_iters", self.clip_decay_iters)
        if self.value_clamp_param is not None:
            _check_positive("value_clamp_param", self.value_clamp_param)

    def with_updates(self, **changes: Any) -> "PPOConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["hidden_sizes"] = list(self.hidden_sizes)
        if self.kl_coeff_bounds is not None:
            payload["kl_coeff_bounds"] = list(self.kl_coeff_bounds)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PPOConfig":
        payload = dict(payload)
        if "hidden_sizes" in payload:
            payload["hidden_sizes"] = tuple(payload["hidden_sizes"])
        if payload.get("kl_coeff_bounds") is not None:
            payload["kl_coeff_bounds"] = tuple(payload["kl_coeff_bounds"])
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown PPOConfig fields: {sorted(unknown)}")
        return cls(**payload)


def paper_system_config(
    delta_t: float = 1.0,
    num_queues: int = 1000,
    num_clients: int | None = None,
) -> SystemConfig:
    """Table 1 configuration; ``num_clients`` defaults to ``M**2``."""
    if num_clients is None:
        num_clients = num_queues**2
    return SystemConfig(
        num_clients=num_clients,
        num_queues=num_queues,
        buffer_size=5,
        d=2,
        service_rate=1.0,
        arrival_rate_high=0.9,
        arrival_rate_low=0.6,
        p_high_to_low=0.2,
        p_low_to_high=0.5,
        delta_t=delta_t,
        episode_length=500,
        eval_episode_length=None,
        monte_carlo_runs=100,
        drop_penalty=1.0,
        initial_state=0,
    )


def paper_ppo_config(seed: int = 0) -> PPOConfig:
    """Table 2 configuration, verbatim."""
    return PPOConfig(
        gamma=0.99,
        gae_lambda=1.0,
        kl_coeff=0.2,
        clip_param=0.3,
        learning_rate=5e-5,
        train_batch_size=4000,
        minibatch_size=128,
        num_epochs=30,
        hidden_sizes=(256, 256),
        seed=seed,
    )


# Rendered rows for the Table 1 / Table 2 reproduction benches; each row
# is (symbol, name, paper value, accessor on the default paper config).
TABLE1_ROWS: tuple[tuple[str, str, str], ...] = (
    ("Δt", "Time step size", "1 - 10"),
    ("α", "Service rate", "1"),
    ("(λh, λl)", "Arrival rates", "(0.9, 0.6)"),
    ("N", "Number of clients", "1000 - 1000000"),
    ("M", "Number of queues", "100 - 1000"),
    ("d", "Number of accessible queues", "2"),
    ("n", "Monte Carlo simulations", "100"),
    ("B", "Queue buffer size", "5"),
    ("ν0", "Queue starting state distribution", "[1, 0, 0, ...]"),
    ("D", "Drop penalty per job", "1"),
    ("T", "Training episode length", "500"),
    ("Te", "Evaluation episode length", "50 - 500"),
)

TABLE2_ROWS: tuple[tuple[str, str, str], ...] = (
    ("γ", "Discount factor", "0.99"),
    ("λRL", "GAE lambda", "1"),
    ("β", "KL coefficient", "0.2"),
    ("ε", "Clip parameter", "0.3"),
    ("lr", "Learning rate", "0.00005"),
    ("Bb", "Training batch size", "4000"),
    ("Bm", "SGD Mini batch size", "128"),
    ("Tb", "Number of epochs", "30"),
)
