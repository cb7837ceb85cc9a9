"""STP, ANTT and per-program slowdowns.

These are the two metrics of the paper's Section 3:

.. math::

    STP  = \\sum_{p=1}^{n} \\frac{CPI_{SC,p}}{CPI_{MC,p}}
    \\qquad
    ANTT = \\frac{1}{n} \\sum_{p=1}^{n} \\frac{CPI_{MC,p}}{CPI_{SC,p}}

STP equals the weighted speedup of Snavely & Tullsen and is
higher-is-better; ANTT is the reciprocal of Luo et al.'s hmean metric
and is lower-is-better.  Both are computed from per-program single-core
and multi-core CPIs, regardless of whether the multi-core CPIs come
from detailed simulation or from MPPM.
"""

from __future__ import annotations

from typing import Sequence


class MetricError(ValueError):
    """Raised for invalid metric inputs."""


def _validate(single_core_cpis: Sequence[float], multi_core_cpis: Sequence[float]) -> None:
    if len(single_core_cpis) != len(multi_core_cpis):
        raise MetricError(
            f"got {len(single_core_cpis)} single-core CPIs but "
            f"{len(multi_core_cpis)} multi-core CPIs"
        )
    if not single_core_cpis:
        raise MetricError("at least one program is required")
    for value in list(single_core_cpis) + list(multi_core_cpis):
        if value <= 0:
            raise MetricError(f"CPIs must be positive, got {value}")


def stp(single_core_cpis: Sequence[float], multi_core_cpis: Sequence[float]) -> float:
    """System throughput (weighted speedup); higher is better."""
    _validate(single_core_cpis, multi_core_cpis)
    return sum(sc / mc for sc, mc in zip(single_core_cpis, multi_core_cpis))


def antt(single_core_cpis: Sequence[float], multi_core_cpis: Sequence[float]) -> float:
    """Average normalized turnaround time; lower is better."""
    _validate(single_core_cpis, multi_core_cpis)
    n = len(single_core_cpis)
    return sum(mc / sc for sc, mc in zip(single_core_cpis, multi_core_cpis)) / n
