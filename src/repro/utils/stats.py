"""Streaming statistics and confidence intervals for Monte-Carlo runs.

The paper reports estimated expected packet drops with 95% confidence
intervals over ``n`` Monte-Carlo simulations (Figures 4-6). This module
provides numerically stable accumulators (Welford) plus Student-t based
interval construction used by every experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sp_stats

__all__ = [
    "WelfordAccumulator",
    "ConfidenceInterval",
    "mean_confidence_interval",
]


class WelfordAccumulator:
    """Numerically stable streaming mean/variance of scalar samples.

    Welford's online algorithm: one pass, O(1) memory, no catastrophic
    cancellation — the aggregation primitive behind the Monte-Carlo
    harness and the streaming engine's scalar accumulators.

    Examples
    --------
    >>> acc = WelfordAccumulator()
    >>> acc.extend([1.0, 2.0, 3.0])
    >>> acc.mean
    2.0
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the running moments.

        Parameters
        ----------
        value : float
            The sample; must be finite (``ValueError`` otherwise).
        """
        if not math.isfinite(value):
            raise ValueError(f"non-finite sample: {value!r}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def extend(self, values) -> None:
        """Fold a batch of samples, in iteration order.

        Parameters
        ----------
        values : array_like
            Samples; flattened before folding.
        """
        for v in np.asarray(values, dtype=float).ravel():
            self.add(float(v))

    @property
    def count(self) -> int:
        """Number of samples folded so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Running sample mean (``ValueError`` with no samples)."""
        if self._count == 0:
            raise ValueError("no samples accumulated")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (requires >= 2 samples)."""
        if self._count < 2:
            raise ValueError("variance needs at least two samples")
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation ``sqrt(variance)``."""
        return math.sqrt(self.variance)

    def standard_error(self) -> float:
        """Standard error of the mean, ``std / sqrt(count)``.

        Returns
        -------
        float
            The half-width scale the t-based confidence intervals
            multiply.
        """
        return self.std / math.sqrt(self._count)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric ``level`` confidence interval around ``mean``.

    Attributes
    ----------
    mean : float
        Point estimate (the sample mean).
    lower, upper : float
        Interval endpoints.
    level : float
        Nominal coverage in ``(0, 1)`` (the paper reports 0.95).
    n : int
        Sample count behind the estimate.
    """

    mean: float
    lower: float
    upper: float
    level: float
    n: int

    @property
    def half_width(self) -> float:
        """Half the interval width (the ``±`` in the rendered tables)."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the closed interval."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.half_width:.2g} ({self.level:.0%}, n={self.n})"


def mean_confidence_interval(samples, level: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    Parameters
    ----------
    samples : array_like
        Monte-Carlo observations; flattened. Must be non-empty
        (``ValueError`` otherwise).
    level : float, optional
        Nominal coverage in ``(0, 1)``; the paper's figures use 0.95.

    Returns
    -------
    ConfidenceInterval
        ``mean ± t_{level, n-1} · SEM``. With a single sample (or zero
        spread) the interval degenerates to a point.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot build a confidence interval from no samples")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    mean = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(mean, mean, mean, level, 1)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    if sem == 0.0:
        return ConfidenceInterval(mean, mean, mean, level, int(arr.size))
    t_crit = float(sp_stats.t.ppf(0.5 + level / 2.0, df=arr.size - 1))
    half = t_crit * sem
    return ConfidenceInterval(mean, mean - half, mean + half, level, int(arr.size))
