"""The Stack Distance Competition (SDC) contention model.

Chandra et al.'s SDC model merges the co-scheduled programs'
stack-distance profiles to decide how many ways of each set every
program effectively owns: the A ways of the shared cache are handed
out one at a time, each time to the program that would gain the most
hits from one more way (i.e. the program with the largest counter at
its next unclaimed stack position).  Each program's shared-cache
misses are then its own misses at the number of ways it won.

Programs that win no way at all still keep one effective way's worth of
space in this implementation (a fully starved program would otherwise
predict a 100% miss rate, which LRU sharing does not produce in
practice and which destabilises MPPM's iteration).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.config.cache_config import CacheConfig
from repro.contention.base import (
    ContentionEstimate,
    ContentionModel,
    ProgramCacheDemand,
    suffix_misses,
)


class StackDistanceCompetitionModel(ContentionModel):
    """Stack-distance competition contention model (Chandra et al., HPCA 2005)."""

    name = "sdc"

    def estimate(
        self, demands: Sequence[ProgramCacheDemand], llc: CacheConfig
    ) -> List[ContentionEstimate]:
        self._validate(demands, llc)
        associativity = llc.associativity
        num_programs = len(demands)

        if num_programs == 1:
            demand = demands[0]
            return [
                ContentionEstimate(
                    name=demand.name,
                    isolated_misses=demand.isolated_misses,
                    shared_misses=demand.isolated_misses,
                )
            ]

        # Competition: repeatedly give the next way to the program whose
        # next stack position holds the most accesses.
        won_ways = [0] * num_programs
        next_position = [0] * num_programs  # index into counts[0..A-1]
        for _ in range(associativity):
            best_program = -1
            best_value = -1.0
            for i, demand in enumerate(demands):
                position = next_position[i]
                if position >= associativity:
                    continue
                value = float(demand.sdc.counts[position])
                if value > best_value:
                    best_value = value
                    best_program = i
            if best_program < 0:
                break
            won_ways[best_program] += 1
            next_position[best_program] += 1

        estimates: List[ContentionEstimate] = []
        for i, demand in enumerate(demands):
            isolated = demand.isolated_misses
            effective_ways = max(1, won_ways[i]) if demand.accesses > 0 else associativity
            shared = demand.sdc.misses_for_ways(min(effective_ways, associativity))
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
        """The way-by-way competition for all mixes at once, without a loop over ways.

        A program claims its stack positions in order, and each round
        the largest next counter wins (the first program on a tie), so
        a position's claim waits for the smallest counter before it:
        claims come in descending order of each position's prefix
        minimum, ties going to the lower program and then the earlier
        position.  A stable descending sort of the prefix minima over
        ``[program, position]`` therefore lists the scalar loop's claims
        in order, and a program wins its entries among the first A.
        The scalar loop's running best starts at -1.0, so a position
        whose prefix minimum is -1.0 or less is never claimed (the
        scalar loop's early break).  Only comparisons are involved, so
        the won ways, and the misses read at them, equal the scalar
        loop's exactly.
        """
        counts = np.asarray(counts, dtype=np.float64)
        self._validate_batch(counts, llc)
        num_mixes, num_programs, _ = counts.shape
        associativity = llc.associativity
        isolated = counts[..., associativity]
        if num_programs == 1:
            return isolated.copy()

        accesses = np.add.reduce(counts, axis=-1)
        heads = np.minimum.accumulate(counts[..., :associativity], axis=-1)
        order = np.argsort(-heads.reshape(num_mixes, -1), axis=1, kind="stable")
        winners = order[:, :associativity] // associativity
        won_ways = np.minimum(
            np.add.reduce(winners[..., None] == np.arange(num_programs), axis=1),
            np.add.reduce(heads > -1.0, axis=-1),
        )

        effective_ways = np.where(accesses > 0.0, np.maximum(won_ways, 1), associativity)
        effective_ways = np.minimum(effective_ways, associativity)
        return np.maximum(suffix_misses(counts, effective_ways), isolated)
