"""An inductive-probability style contention model.

Chandra et al.'s third model (Prob) estimates, for every access with a
given stack distance, the probability that interleaved accesses from
co-scheduled threads push the reused line beyond the associativity
before it is reused.  This implementation follows the same idea in a
simplified closed form:

* between two consecutive accesses of program ``p`` to the same set,
  each co-runner ``q`` interleaves ``a_q / a_p`` accesses on average
  (access counts over the shared window),
* only the fraction of those accesses that bring *new* lines into the
  set pushes ``p``'s line deeper; that fraction is estimated from
  ``q``'s own stack-distance profile as its "unique line" rate (cold
  and deep accesses),
* an access of ``p`` with isolated stack distance ``d`` therefore sees
  an effective shared distance of ``d * (1 + sum_q r_q * u_q)`` and
  misses when that exceeds the associativity.

The model is intentionally more pessimistic than FOA for programs with
sparse reuse and is used in the contention-model ablation benchmark.
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


def _unique_line_rate(demand: ProgramCacheDemand) -> float:
    """Fraction of a program's accesses that insert a (newly fetched or deep) line."""
    total = demand.sdc.total_accesses
    if total <= 0:
        return 0.0
    return demand.sdc.misses / total


class InductiveProbabilityModel(ContentionModel):
    """Probabilistic dilation of stack distances by interleaved co-runner accesses."""

    name = "prob"

    def estimate(
        self, demands: Sequence[ProgramCacheDemand], llc: CacheConfig
    ) -> List[ContentionEstimate]:
        self._validate(demands, llc)
        associativity = llc.associativity

        estimates: List[ContentionEstimate] = []
        for i, demand in enumerate(demands):
            isolated = demand.isolated_misses
            if demand.accesses <= 0 or len(demands) == 1:
                estimates.append(
                    ContentionEstimate(
                        name=demand.name, isolated_misses=isolated, shared_misses=isolated
                    )
                )
                continue

            dilation = 1.0
            for j, other in enumerate(demands):
                if j == i or other.accesses <= 0:
                    continue
                interleaving_ratio = other.accesses / demand.accesses
                dilation += interleaving_ratio * _unique_line_rate(other)

            # An isolated distance d becomes d * dilation when shared; the
            # access misses once that exceeds the associativity.  Accesses
            # at distance d survive sharing only if d <= A / dilation.
            surviving_ways = associativity / dilation
            shared = demand.sdc.misses_for_effective_ways(surviving_ways)
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
        """Dilation accumulated co-runner by co-runner, as the scalar loop does.

        Every (program, co-runner) term is one array expression over a
        ``[mix, program, co-runner]`` grid; each program's 1.0 and then
        its co-runners' terms, in ascending order, are folded left to
        right by one ``np.add.accumulate`` (the scalar loop's order at
        any width).  Co-runners with no accesses contribute an exact 0.0
        term, which matches the scalar path skipping them (the dilation
        is at least 1.0, so adding 0.0 leaves it bitwise unchanged).
        """
        counts = np.asarray(counts, dtype=np.float64)
        self._validate_batch(counts, associativity)
        num_programs = counts.shape[1]
        isolated = counts[..., associativity]
        if num_programs == 1:
            return isolated.copy()

        accesses = np.add.reduce(counts, axis=-1)
        active = accesses > 0.0
        safe = np.where(active, accesses, 1.0)
        unique_rate = np.where(active, isolated / safe, 0.0)
        terms = np.where(
            active[:, None, :],
            (accesses[:, None, :] / safe[:, :, None]) * unique_rate[:, None, :],
            0.0,
        )
        # Row i of ``order`` is i, then every other program ascending.
        programs = np.arange(num_programs)
        order = np.argsort(programs != programs[:, None], axis=1, kind="stable")
        folded = terms[:, programs[:, None], order]
        folded[..., 0] = 1.0
        dilation = np.add.accumulate(folded, axis=-1)[..., -1]
        contended = np.maximum(interpolated_misses(counts, associativity / dilation), isolated)
        return np.where(active, contended, isolated)
