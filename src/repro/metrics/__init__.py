"""Multi-program performance metrics and supporting statistics.

The paper quantifies multi-core performance with two system-level
metrics (Eyerman & Eeckhout, IEEE Micro 2008):

* **STP** (system throughput, a.k.a. weighted speedup) — the summed
  per-program progress ``sum_p CPI_SC,p / CPI_MC,p``; higher is better.
* **ANTT** (average normalized turnaround time) — the average
  per-program slowdown ``mean_p CPI_MC,p / CPI_SC,p``; lower is better.

The statistics module provides the 95% confidence intervals used in the
variability study (Figure 3), the Spearman rank correlation used to
compare design-space rankings (Figure 7), and the absolute relative
error used throughout Section 4.
"""

from repro.metrics.throughput import antt, stp
from repro.metrics.errors import absolute_relative_error
from repro.metrics.statistics import (
    ConfidenceInterval,
    confidence_interval,
    spearman_rank_correlation,
)

__all__ = [
    "stp",
    "antt",
    "absolute_relative_error",
    "ConfidenceInterval",
    "confidence_interval",
    "spearman_rank_correlation",
]
