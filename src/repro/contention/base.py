"""Interface shared by all cache-contention models.

A contention model answers one question: given the per-program
stack-distance counters (SDCs) over a window of co-executed
instructions, how many *additional* LLC misses does each program suffer
because the cache is shared?  Chandra et al. frame this as predicting
the shared-cache miss count from per-thread isolated profiles; MPPM
consumes the difference between that prediction and the isolated miss
count (the ``C>A`` counter).

A model has two production entries, both on arrays: ``estimate_batch``
over a batch of mixes and ``estimate_mix`` over one mix (by default the
batch of one).  The batched MPPM solver and ``baseline:one-shot`` call
only these.  The scalar ``estimate`` on :class:`ProgramCacheDemand`
objects is the MPPM reference loop's form, and ``estimate_batch`` must
equal it bit for bit.  The built-in models' miss counts at a number of
ways go through
:func:`suffix_misses`, which must equal the contiguous slice sum
``counts[w:].sum()`` of the scalar
:meth:`~repro.caches.stack_distance.StackDistanceCounters.misses_for_ways`.
numpy's pairwise summation blocks the reduced axis by its length (in
eight-way unrolled blocks), so equivalent-looking shortcuts round
differently and must not replace it:

* ``np.add.reduceat`` does not match slice sums bit for bit (784,091 of
  2,124,000 results differed in one test);
* a reverse ``cumsum``, or rows zero-padded to one width, changes the
  blocking;
* in the window table's interval lookup, replacing
  ``K - count(boundaries > x)`` with ``(boundaries <= x).sum()`` changes
  the lookup of a NaN position (the lookup is a ``searchsorted`` that
  maps NaN explicitly, see :class:`~repro.profiling.profile.WindowSlots`).

One shortcut does match: a ``where=``-masked ``np.add.reduce`` over the
full vector whose mask keeps the columns ``>= w``.  numpy's masked loop
hands each unmasked run to the same pairwise kernel, and the kept
columns of a suffix mask are one contiguous run ``counts[w:]``, so the
kernel sees exactly the slice and blocks it the same way.
``TestSuffixMissesBitIdentity`` in ``tests/test_contention_models.py``
guards this at every width from 2 to 33 (both sides of the eight-way
unroll), on contiguous arrays and ``[..., 5:]`` views, for ``w = 0``,
``w = A``, all-zero rows, a ``[125, 4, 17]`` batch and broadcast
``(2, M, C)`` lookups.  :func:`interpolated_misses` reads both
neighbouring way counts with two such reduces over ``counts`` itself;
the second masks the view ``counts[..., 1:]`` with the first mask
shifted one column, so its kept run is ``counts[w + 1:]``.  Sums over
the program axis (FOA's access totals, prob's dilations) are the scalar
path's left folds, which ``np.add.accumulate`` is at any width; a plain
``np.add.reduce`` over that axis blocks pairwise past eight programs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.caches.stack_distance import StackDistanceCounters
from repro.config.cache_config import CacheConfig


def suffix_misses(counts: np.ndarray, ways: np.ndarray) -> np.ndarray:
    """Batched ``misses_for_ways``: ``counts[..., w:]`` summed at each element's ``w``.

    ``counts[..., A+1]`` are stack-distance counter vectors and ``ways``
    holds integer way counts in ``[0, A]``, of shape ``counts.shape[:-1]``
    behind any number of extra leading axes (one lookup per leading
    index).  Every lookup is one row of a single ``where=``-masked
    reduce that keeps the columns at or beyond its ``w``, so the call
    reads each vector once per lookup rather than once per distinct
    way count.  Each result is the scalar method's slice sum, bit for
    bit (see the module docstring for why, and for the shortcuts that
    are not).
    """
    mask = np.arange(counts.shape[-1]) >= ways[..., None]
    if mask.shape != counts.shape:
        counts = np.broadcast_to(counts, mask.shape)
    return np.add.reduce(counts, axis=-1, where=mask)


def interpolated_misses(counts: np.ndarray, effective_ways: np.ndarray) -> np.ndarray:
    """Batched ``misses_for_effective_ways`` for ``counts[..., A+1]``.

    Linear interpolation between the neighbouring integer way counts
    (two masked reduces over ``counts``, see the module docstring), with
    the same clamps (negative → 0, at or beyond the associativity → the
    plain miss count) and the same float operation order as the scalar
    method, so batch and scalar results are bit-identical.
    """
    associativity = counts.shape[-1] - 1
    effective = np.maximum(effective_ways, 0.0)
    lower = np.minimum(np.floor(effective), associativity - 1.0)
    fraction = effective - lower
    # On the view ``counts[..., 1:]``, the mask of the columns >= lower
    # shifted one column right keeps the columns >= lower + 1.
    mask = np.arange(associativity + 1.0) >= lower[..., None]
    at_lower = np.add.reduce(counts, axis=-1, where=mask)
    at_upper = np.add.reduce(counts[..., 1:], axis=-1, where=mask[..., :-1])
    misses = (1.0 - fraction) * at_lower + fraction * at_upper
    np.copyto(misses, counts[..., associativity], where=effective >= associativity)
    return misses


class ContentionModelError(ValueError):
    """Raised when a contention model is given inconsistent inputs."""


@dataclass(frozen=True)
class ProgramCacheDemand:
    """One program's demand on the shared cache over a window.

    Attributes
    ----------
    name:
        Program identifier (benchmark name, or a per-core label when a
        mix contains several copies of the same benchmark).
    sdc:
        The program's stack-distance counters over the window, measured
        against the shared cache's geometry when running *alone*.
    instructions:
        Instructions the program executes in the window (used by models
        that need rates rather than raw counts).
    """

    name: str
    sdc: StackDistanceCounters
    instructions: float

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ContentionModelError(
                f"{self.name}: window instruction count must be positive"
            )

    @property
    def accesses(self) -> float:
        return self.sdc.total_accesses

    @property
    def isolated_misses(self) -> float:
        return self.sdc.misses


@dataclass(frozen=True)
class ContentionEstimate:
    """Per-program outcome of the contention model for one window."""

    name: str
    isolated_misses: float
    shared_misses: float

    @property
    def extra_conflict_misses(self) -> float:
        """Additional misses due to sharing (never negative)."""
        return max(0.0, self.shared_misses - self.isolated_misses)


class ContentionModel(ABC):
    """Predicts shared-cache misses from isolated per-program SDCs.

    A model defines the batched :meth:`estimate_batch` and its scalar
    witness :meth:`estimate`; :meth:`estimate_mix` defaults to the batch
    of one.
    """

    name: str = "base"

    @abstractmethod
    def estimate(
        self, demands: Sequence[ProgramCacheDemand], llc: CacheConfig
    ) -> List[ContentionEstimate]:
        """Estimate shared-LLC misses for each co-running program.

        ``demands`` holds one entry per core; ``llc`` is the shared
        cache being contended for.  Implementations must return one
        estimate per demand, in the same order.  Only the MPPM
        reference loop calls this scalar form; it is the witness that
        :meth:`estimate_batch` must equal.
        """

    @abstractmethod
    def estimate_batch(
        self, counts: np.ndarray, instructions: np.ndarray, associativity: int
    ) -> np.ndarray:
        """Shared-cache miss counts for a whole batch of windows at once.

        ``counts[m, c, A+1]`` holds every program's stack-distance
        counters over its window, for ``m`` co-schedules of ``c``
        programs each; ``instructions[m, c]`` the matching window
        instruction counts.  Returns ``shared_misses[m, c]``,
        bit-identical per mix to running :meth:`estimate` on that mix's
        demands alone.  The batched hooks see only the cache's
        associativity ``A``, so LLCs that differ in size share a solve.
        """

    def estimate_mix(
        self, counts: np.ndarray, instructions: np.ndarray, associativity: int
    ) -> List[float]:
        """``estimate_batch(counts[None], instructions[None], associativity)[0]`` as a list.

        ``counts[c, A+1]`` and ``instructions[c]`` hold one mix's windows
        (the one-mix MPPM solver's).  A model may override this with a
        scalar form that equals the default bit for bit.
        """
        return self.estimate_batch(counts[None], instructions[None], associativity)[0].tolist()

    @staticmethod
    def _validate_batch(counts: np.ndarray, associativity: int) -> None:
        if counts.ndim != 3 or counts.shape[1] < 1:
            raise ContentionModelError(
                "batched counts must have shape (mixes, programs, ways + 1) "
                f"with at least one program, got {counts.shape}"
            )
        if counts.shape[-1] != associativity + 1:
            raise ContentionModelError(
                f"batched SDC width {counts.shape[-1] - 1} does not match the "
                f"shared cache associativity {associativity}"
            )

    @staticmethod
    def _validate(demands: Sequence[ProgramCacheDemand], llc: CacheConfig) -> None:
        if not demands:
            raise ContentionModelError("at least one program demand is required")
        for demand in demands:
            if demand.sdc.associativity != llc.associativity:
                raise ContentionModelError(
                    f"{demand.name}: SDC associativity {demand.sdc.associativity} does not "
                    f"match the shared cache associativity {llc.associativity}"
                )
