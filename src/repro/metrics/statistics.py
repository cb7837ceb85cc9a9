"""Statistics used by the paper's evaluation.

* 95% confidence intervals on the mean STP/ANTT across random workload
  mixes (Figure 3: how the interval shrinks as more mixes are added), and
* Spearman rank correlation between design-space rankings (Figure 7:
  does a small random sample rank the six LLC configurations the same
  way as the reference?).

The Student-t quantile comes from SciPy's ``scipy.special.stdtrit``
(the function ``scipy.stats.t.ppf`` evaluates, so the intervals match
it bit for bit). It is imported on the first interval computed, not
with this module: ``scipy.stats`` alone takes about a second to import,
and most processes never compute an interval. Without SciPy a normal
approximation keeps the package functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

import numpy as np


class StatisticsError(ValueError):
    """Raised for invalid statistical inputs."""


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a sample mean."""

    mean: float
    lower: float
    upper: float
    confidence: float
    num_samples: int

    @property
    def halfwidth(self) -> float:
        return (self.upper - self.lower) / 2.0

    @property
    def halfwidth_pct_of_mean(self) -> float:
        """Half-width as a fraction of the mean (the paper's '10% interval')."""
        if self.mean == 0:
            return float("inf")
        return self.halfwidth / abs(self.mean)


@lru_cache(maxsize=None)
def _load_stdtrit() -> Optional[Callable]:
    """SciPy's inverse Student-t CDF, imported once; ``None`` without SciPy."""
    try:
        from scipy.special import stdtrit
    except ImportError:
        return None
    return stdtrit


def _critical_value(confidence: float, dof: int) -> float:
    """Student-t critical value (normal approximation without SciPy)."""
    stdtrit = _load_stdtrit()
    if stdtrit is not None:
        return float(stdtrit(dof, 0.5 + confidence / 2.0))
    # Normal approximation; adequate for the sample sizes used here.
    return float(
        np.sqrt(2.0) * _erfinv(confidence)
    )


def _erfinv(value: float) -> float:
    """Inverse error function (used only when SciPy is unavailable)."""
    # Winitzki's approximation.
    a = 0.147
    ln_term = np.log(1.0 - value * value)
    first = 2.0 / (np.pi * a) + ln_term / 2.0
    return float(np.sign(value) * np.sqrt(np.sqrt(first * first - ln_term / a) - first))


def confidence_interval(samples: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``."""
    if not 0 < confidence < 1:
        raise StatisticsError(f"confidence must be in (0, 1), got {confidence}")
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size < 2:
        raise StatisticsError("at least two samples are needed for a confidence interval")
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(values.size))
    critical = _critical_value(confidence, values.size - 1)
    halfwidth = critical * stderr
    return ConfidenceInterval(
        mean=mean,
        lower=mean - halfwidth,
        upper=mean + halfwidth,
        confidence=confidence,
        num_samples=int(values.size),
    )


def spearman_rank_correlation(first: Sequence[float], second: Sequence[float]) -> float:
    """Spearman rank correlation coefficient between two value series.

    The coefficient is 1.0 when both series rank the items identically
    and -1.0 when they rank them in exactly opposite order (the paper's
    Figure 7 uses it to compare design-space rankings).
    """
    if len(first) != len(second):
        raise StatisticsError("both series must have the same length")
    n = len(first)
    if n < 2:
        raise StatisticsError("at least two items are needed for a rank correlation")
    ranks_first = np.asarray(_average_ranks(first), dtype=np.float64)
    ranks_second = np.asarray(_average_ranks(second), dtype=np.float64)
    first_centered = ranks_first - ranks_first.mean()
    second_centered = ranks_second - ranks_second.mean()
    denominator = float(
        np.sqrt((first_centered**2).sum()) * np.sqrt((second_centered**2).sum())
    )
    if denominator == 0:
        # One of the series is constant; correlation is undefined, treat as perfect
        # agreement only if both are constant.
        return 1.0 if np.allclose(ranks_first, ranks_second) else 0.0
    return float((first_centered * second_centered).sum() / denominator)


def _average_ranks(values: Sequence[float]) -> List[float]:
    """Fractional (average) ranks, handling ties the standard way."""
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(indexed):
        j = i
        while j + 1 < len(indexed) and values[indexed[j + 1]] == values[indexed[i]]:
            j += 1
        average_rank = (i + j) / 2.0
        for k in range(i, j + 1):
            ranks[indexed[k]] = average_rank
        i = j + 1
    return ranks
