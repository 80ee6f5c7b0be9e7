"""Markov-modulated arrival intensity (paper Eq. 1 and Eq. 32-33).

The per-queue arrival intensity ``λ_t`` follows an exogenous
discrete-time Markov chain over a finite set of levels (the paper uses
two: high 0.9 and low 0.6 with switching probabilities 0.2 and 0.5),
modelling e.g. diurnal load variation. The chain is shared by the
mean-field MDP and the finite system; the *system-wide* job arrival rate
is ``M · λ_t``.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.meanfield.analytic import mmpp_stationary_distribution
from repro.utils.rng import as_generator

__all__ = ["MarkovModulatedRate", "ScriptedRate"]


class MarkovModulatedRate:
    """Finite-level modulating chain for the arrival intensity.

    Parameters
    ----------
    levels : array_like
        Arrival-intensity value of each mode, length ``K``; all
        positive.
    transition_matrix : array_like
        Row-stochastic ``K x K`` matrix ``P_λ``; ``P[i, j]`` is the
        probability of switching from mode ``i`` to mode ``j`` at the
        next decision epoch.
    initial_distribution : array_like, optional
        Distribution of the initial mode; defaults to uniform, matching
        the paper's ``λ_0 ~ Unif({λ_h, λ_l})``.

    See Also
    --------
    repro.queueing.workloads : deterministic non-stationary profiles
        (diurnal, flash crowd, trace replay) behind the same interface.
    """

    def __init__(
        self,
        levels,
        transition_matrix,
        initial_distribution=None,
    ) -> None:
        self.levels = np.asarray(levels, dtype=np.float64)
        if self.levels.ndim != 1 or self.levels.size < 1:
            raise ValueError("levels must be a non-empty 1-D array")
        if np.any(self.levels <= 0):
            raise ValueError("arrival levels must be positive")
        self.transition_matrix = np.asarray(transition_matrix, dtype=np.float64)
        k = self.levels.size
        if self.transition_matrix.shape != (k, k):
            raise ValueError(
                f"transition matrix must be ({k}, {k}), "
                f"got {self.transition_matrix.shape}"
            )
        if np.any(self.transition_matrix < 0) or not np.allclose(
            self.transition_matrix.sum(axis=1), 1.0
        ):
            raise ValueError("transition matrix rows must be distributions")
        if initial_distribution is None:
            initial_distribution = np.full(k, 1.0 / k)
        self.initial_distribution = np.asarray(initial_distribution, dtype=np.float64)
        if self.initial_distribution.shape != (k,):
            raise ValueError("initial distribution has wrong shape")
        if np.any(self.initial_distribution < 0) or not np.isclose(
            self.initial_distribution.sum(), 1.0
        ):
            raise ValueError("initial distribution must be a distribution")

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: SystemConfig) -> "MarkovModulatedRate":
        """Two-level chain of Eq. (32)-(33): levels ``(λ_h, λ_l)``.

        Mode 0 is *high*, mode 1 is *low*; ``P(h→l) = p_high_to_low`` and
        ``P(l→h) = p_low_to_high``.
        """
        p_hl = config.p_high_to_low
        p_lh = config.p_low_to_high
        return cls(
            levels=[config.arrival_rate_high, config.arrival_rate_low],
            transition_matrix=[[1.0 - p_hl, p_hl], [p_lh, 1.0 - p_lh]],
        )

    @classmethod
    def constant(cls, level: float) -> "MarkovModulatedRate":
        """Degenerate single-mode chain (useful for analytic checks)."""
        return cls(levels=[level], transition_matrix=[[1.0]])

    # ------------------------------------------------------------------
    @property
    def num_modes(self) -> int:
        """Number of modes ``K`` of the modulating chain."""
        return int(self.levels.size)

    def rate(self, mode: int) -> float:
        """Arrival intensity ``λ`` carried by ``mode``."""
        return float(self.levels[mode])

    def sample_initial_mode(self, rng=None) -> int:
        """Draw the initial mode from the initial distribution.

        Parameters
        ----------
        rng : optional
            Seed or :class:`numpy.random.Generator`.

        Returns
        -------
        int
            Mode index in ``[0, K)``.
        """
        rng = as_generator(rng)
        return int(rng.choice(self.num_modes, p=self.initial_distribution))

    def step_mode(self, mode: int, rng=None) -> int:
        """Advance the chain one decision epoch from ``mode``.

        Parameters
        ----------
        mode : int
            Current mode index (range-checked).
        rng : optional
            Seed or :class:`numpy.random.Generator`.

        Returns
        -------
        int
            The next mode, drawn from row ``mode`` of the transition
            matrix.
        """
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} out of range [0, {self.num_modes})")
        rng = as_generator(rng)
        return int(rng.choice(self.num_modes, p=self.transition_matrix[mode]))

    # -- batched interface (replica-vectorized environments) -----------
    def sample_initial_modes_batch(self, count: int, rng=None) -> np.ndarray:
        """Independent initial modes for ``count`` replicas (``(E,)``).

        One uniform draw per replica against the initial-distribution
        CDF — the batched environments use this instead of ``count``
        :meth:`sample_initial_mode` calls.

        Parameters
        ----------
        count : int
            Replica count ``E`` (>= 1).
        rng : optional
            Seed or :class:`numpy.random.Generator`.

        Returns
        -------
        ndarray
            Mode indices, shape ``(E,)``.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = as_generator(rng)
        cum = np.cumsum(self.initial_distribution)
        cum[-1] = 1.0
        return (rng.random(count)[:, None] > cum[None, :]).sum(axis=1)

    def step_modes_batch(self, modes: np.ndarray, rng=None) -> np.ndarray:
        """Advance every replica's mode chain independently.

        Parameters
        ----------
        modes : ndarray
            Current per-replica modes, shape ``(E,)`` (range-checked).
        rng : optional
            Seed or :class:`numpy.random.Generator`.

        Returns
        -------
        ndarray
            Next modes, shape ``(E,)`` — one inverse-CDF draw per
            replica.
        """
        modes = np.asarray(modes)
        if modes.min(initial=0) < 0 or modes.max(initial=0) >= self.num_modes:
            raise ValueError(f"modes out of range [0, {self.num_modes})")
        rng = as_generator(rng)
        cum = np.cumsum(self.transition_matrix, axis=1)
        cum[:, -1] = 1.0
        return (rng.random(modes.size)[:, None] > cum[modes]).sum(axis=1)

    def replica(self) -> "MarkovModulatedRate":
        """Arrival process for an independent environment clone.

        The base chain is memoryless, so clones can safely share one
        instance; stateful subclasses (e.g. :class:`ScriptedRate`'s
        replay cursor) override this to return a fresh copy.
        """
        return self

    def stationary_distribution(self) -> np.ndarray:
        """Stationary mode distribution of the modulating chain."""
        return mmpp_stationary_distribution(self.transition_matrix)

    def stationary_mean_rate(self) -> float:
        """Long-run mean intensity ``E[λ_t]`` (sets the offered load ρ)."""
        return float(self.stationary_distribution() @ self.levels)

    def max_rate(self) -> float:
        """Largest level; ``d`` times it bounds every frozen per-state rate."""
        return float(self.levels.max())

    def simulate_modes(self, num_steps: int, rng=None) -> np.ndarray:
        """Sample a mode trajectory of length ``num_steps`` (incl. t=0).

        Parameters
        ----------
        num_steps : int
            Trajectory length; 0 returns an empty array.
        rng : optional
            Seed or :class:`numpy.random.Generator`.

        Returns
        -------
        ndarray
            Mode indices, shape ``(num_steps,)`` — the scripted input
            for :class:`ScriptedRate` / Theorem-1 replays.
        """
        rng = as_generator(rng)
        modes = np.empty(num_steps, dtype=np.intp)
        if num_steps == 0:
            return modes
        modes[0] = self.sample_initial_mode(rng)
        for t in range(1, num_steps):
            modes[t] = self.step_mode(int(modes[t - 1]), rng)
        return modes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MarkovModulatedRate(levels={self.levels.tolist()}, "
            f"modes={self.num_modes})"
        )


class ScriptedRate(MarkovModulatedRate):
    """Arrival process that replays a fixed mode sequence.

    Theorem 1 conditions on the arrival-rate sequence ("non-random
    ``λ^{N,M}_t = λ^M_t = λ_t``"); the convergence analysis therefore
    needs the mean-field and finite systems to see *identical* mode
    trajectories. This subclass replays a given sequence (repeating the
    final mode beyond its end) while keeping the full
    :class:`MarkovModulatedRate` interface.

    Parameters
    ----------
    levels : array_like
        Arrival-intensity value of each mode, length ``K``.
    mode_sequence : array_like
        Mode indices to replay, in ``[0, K)``; the final mode repeats
        past the end.
    """

    #: Replay-irrelevant mutable state: environments reset the cursor
    #: before use, so it stays out of the experiment-store fingerprint.
    __fingerprint_exclude__ = ("_cursor",)

    def __init__(self, levels, mode_sequence) -> None:
        levels = np.asarray(levels, dtype=np.float64)
        k = levels.size
        # The transition matrix is irrelevant for a scripted chain, but the
        # base class requires a valid one.
        super().__init__(levels, np.eye(k))
        self._sequence = np.asarray(mode_sequence, dtype=np.intp)
        if self._sequence.ndim != 1 or self._sequence.size < 1:
            raise ValueError("mode_sequence must be a non-empty 1-D array")
        if self._sequence.min() < 0 or self._sequence.max() >= k:
            raise ValueError("mode_sequence entries out of range")
        self._cursor = 0

    @classmethod
    def from_process(
        cls, process: MarkovModulatedRate, num_steps: int, rng=None
    ) -> "ScriptedRate":
        """Freeze one random trajectory of ``process``.

        Parameters
        ----------
        process : MarkovModulatedRate
            Chain to sample the trajectory from.
        num_steps : int
            Trajectory length.
        rng : optional
            Seed or :class:`numpy.random.Generator`.
        """
        modes = process.simulate_modes(num_steps, rng)
        return cls(process.levels, modes)

    def sample_initial_mode(self, rng=None) -> int:
        self._cursor = 0
        return int(self._sequence[0])

    def step_mode(self, mode: int, rng=None) -> int:
        self._cursor = min(self._cursor + 1, self._sequence.size - 1)
        return int(self._sequence[self._cursor])

    # A scripted chain replays ONE trajectory (Theorem 1 conditions on
    # the arrival sequence), so every replica of a batched environment
    # sees the same mode and the cursor advances once per epoch.
    def sample_initial_modes_batch(self, count: int, rng=None) -> np.ndarray:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return np.full(count, self.sample_initial_mode(rng), dtype=np.intp)

    def step_modes_batch(self, modes: np.ndarray, rng=None) -> np.ndarray:
        modes = np.asarray(modes)
        return np.full(
            modes.size, self.step_mode(int(modes[0]), rng), dtype=np.intp
        )

    def replica(self) -> "ScriptedRate":
        """Fresh replay of the same trajectory (own cursor)."""
        return ScriptedRate(self.levels, self._sequence)

    @property
    def mode_sequence(self) -> np.ndarray:
        """Copy of the scripted mode trajectory."""
        return self._sequence.copy()
