"""The Frequency of Access (FOA) contention model.

FOA is the simplest of Chandra et al.'s models and the one the paper
uses: each co-scheduled program effectively owns a fraction of the
shared cache proportional to its access frequency.  The intuition is
that a program that accesses the cache more often brings in more data
and therefore occupies more space under LRU.

Concretely, for program ``p`` with access count ``a_p`` out of a window
total ``A_total``, its effective share of an A-way set is
``A * a_p / A_total`` ways.  Its shared-cache misses are then read off
its own stack-distance counters at that (fractional) number of ways,
interpolating between the neighbouring integer counters.  A program
running alone keeps the full cache and its isolated miss count.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.config.cache_config import CacheConfig
from repro.contention.base import (
    ContentionEstimate,
    ContentionModel,
    ProgramCacheDemand,
    interpolated_misses,
)


class FOAModel(ContentionModel):
    """Frequency-of-access cache contention model (Chandra et al., HPCA 2005)."""

    name = "foa"

    def estimate(
        self, demands: Sequence[ProgramCacheDemand], llc: CacheConfig
    ) -> List[ContentionEstimate]:
        self._validate(demands, llc)
        total_accesses = sum(demand.accesses for demand in demands)
        estimates: List[ContentionEstimate] = []
        for demand in demands:
            isolated = demand.isolated_misses
            if total_accesses <= 0 or demand.accesses <= 0 or len(demands) == 1:
                # No traffic at all, or no co-runners: sharing changes nothing.
                estimates.append(
                    ContentionEstimate(
                        name=demand.name, isolated_misses=isolated, shared_misses=isolated
                    )
                )
                continue
            share = demand.accesses / total_accesses
            effective_ways = llc.associativity * share
            shared = demand.sdc.misses_for_effective_ways(effective_ways)
            # Sharing can only add misses: clamp at the isolated count.
            shared = max(shared, isolated)
            estimates.append(
                ContentionEstimate(
                    name=demand.name, isolated_misses=isolated, shared_misses=shared
                )
            )
        return estimates

    def estimate_batch(
        self, counts: np.ndarray, instructions: np.ndarray, llc: CacheConfig
    ) -> np.ndarray:
        """The proportional-share formula as one array expression per batch."""
        counts = np.asarray(counts, dtype=np.float64)
        self._validate_batch(counts, llc)
        num_programs = counts.shape[1]
        isolated = counts[..., llc.associativity]
        if num_programs == 1:
            return isolated.copy()
        accesses = np.add.reduce(counts, axis=-1)
        # Accumulate the per-mix access totals program by program, in
        # the same left-to-right order as the scalar path's sum().
        total = accesses[:, 0]
        for core in range(1, num_programs):
            total = total + accesses[:, core]
        share = accesses / np.where(total > 0.0, total, 1.0)[:, None]
        effective_ways = llc.associativity * share
        shared = np.maximum(interpolated_misses(counts, effective_ways), isolated)
        degenerate = (total <= 0.0)[:, None] | (accesses <= 0.0)
        return np.where(degenerate, isolated, shared)
