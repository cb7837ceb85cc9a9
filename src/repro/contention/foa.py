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

import math
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
        self, counts: np.ndarray, instructions: np.ndarray, associativity: int
    ) -> np.ndarray:
        """The proportional-share formula as one array expression per batch."""
        counts = np.asarray(counts, dtype=np.float64)
        self._validate_batch(counts, associativity)
        isolated = counts[..., associativity]
        if counts.shape[1] == 1:
            return isolated.copy()
        accesses = np.add.reduce(counts, axis=-1)
        # The per-mix access totals as a running sum over the programs,
        # the left-to-right order of the scalar path's sum().
        total = np.add.accumulate(accesses, axis=1)[:, -1:]
        # A zero total (its shares are discarded) becomes the least
        # positive double, 5e-324, which leaves positive totals unchanged.
        share = accesses / np.maximum(total, 5e-324)
        shared = np.maximum(interpolated_misses(counts, associativity * share), isolated)
        # Counters are non-negative, so a mix without accesses has no
        # program with accesses: one mask covers both scalar tests.
        np.copyto(shared, isolated, where=accesses <= 0.0)
        return shared

    def estimate_mix(
        self, counts: np.ndarray, instructions: np.ndarray, associativity: int
    ) -> List[float]:
        """:meth:`estimate_batch` for one mix, on each program's Python floats.

        Only the row sums and the two suffix sums stay numpy reduces
        (their blocking decides the bits); every other step is the
        batched expression's IEEE operation, the total a left fold.
        """
        self._validate_batch(counts[None], associativity)
        ways = associativity
        shared = counts[:, ways].tolist()  # the isolated misses, for now
        if len(shared) == 1:
            return shared
        accesses = np.add.reduce(counts, axis=-1).tolist()
        total = accesses[0]
        for value in accesses[1:]:
            total += value
        total = max(total, 5e-324)
        effective = [max(ways * (value / total), 0.0) for value in accesses]
        lower = [math.floor(share) if share < ways else ways - 1 for share in effective]
        # ``interpolated_misses``' two masked reduces, at these lower ways.
        mask = np.arange(ways + 1) >= np.array(lower)[:, None]
        at_lower = np.add.reduce(counts, axis=-1, where=mask).tolist()
        at_upper = np.add.reduce(counts[:, 1:], axis=-1, where=mask[:, :-1]).tolist()
        for p, (value, share, floor) in enumerate(zip(accesses, effective, lower)):
            if value > 0.0 and share < ways:
                fraction = share - floor
                misses = (1.0 - fraction) * at_lower[p] + fraction * at_upper[p]
                shared[p] = max(misses, shared[p])
        return shared
