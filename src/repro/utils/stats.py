"""Student-t confidence intervals for Monte-Carlo runs.

The paper reports estimated expected packet drops with 95% confidence
intervals over ``n`` Monte-Carlo simulations (Figures 4-6). This module
builds those intervals for the sweep merge, the stream summaries, the
policy evaluations and the training campaign.

The t quantile comes from :func:`scipy.special.stdtrit`, the function
SciPy's Student-t ``ppf`` evaluates, so the intervals are bit-identical
to SciPy's t distribution without importing SciPy's statistics package,
which cost every process about a second of start-up and ~38 MiB (see
"Start-up cost" in ``docs/scaling.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

__all__ = [
    "ConfidenceInterval",
    "mean_confidence_interval",
]


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
    t_crit = float(stdtrit(arr.size - 1, 0.5 + level / 2.0))
    half = t_crit * sem
    return ConfidenceInterval(mean, mean - half, mean + half, level, int(arr.size))
