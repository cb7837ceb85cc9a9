"""Multi-program workload mixes: counting, enumeration and sampling.

A multi-program workload for an M-core machine is a multiset of M
benchmark names (programs may repeat: the paper's worst-case 4-program
workload contains two copies of ``gamess``).  For N benchmarks there
are ``C(N + M - 1, M)`` such mixes — 435 two-program mixes, 35,960
four-program mixes and over 30.2 million eight-program mixes for the 29
SPEC CPU2006 benchmarks (paper §1), which is why exhaustive detailed
simulation is infeasible and why MPPM exists.

This module provides:

* :func:`count_mixes` — the combinatorial count above,
* :func:`enumerate_mixes` — lazily enumerate all mixes,
* :func:`sample_mixes` — draw random mixes (current practice and the
  MPPM large-sample evaluation both use this),
* :func:`sample_category_mixes` — draw mixes within MEM/COMP/MIX
  categories (the "current practice with classes" of Section 5).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.benchmark import WorkloadError
from repro.workloads.classification import BenchmarkClass


@dataclass(frozen=True, order=True)
class WorkloadMix:
    """A multi-program workload: an ordered tuple of benchmark names.

    Two mixes that contain the same programs in a different order are
    considered equal (the machine is symmetric); the canonical form
    stores the names sorted.
    """

    programs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.programs:
            raise WorkloadError("a workload mix must contain at least one program")
        object.__setattr__(self, "programs", tuple(sorted(self.programs)))

    @property
    def num_programs(self) -> int:
        return len(self.programs)

    def counts(self) -> Dict[str, int]:
        """How many copies of each program the mix contains."""
        result: Dict[str, int] = {}
        for name in self.programs:
            result[name] = result.get(name, 0) + 1
        return result

    def label(self) -> str:
        """Compact human-readable label, e.g. ``"2x gamess + hmmer + soplex"``."""
        parts = []
        for name, count in sorted(self.counts().items()):
            parts.append(f"{count}x {name}" if count > 1 else name)
        return " + ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.label()


def count_mixes(num_benchmarks: int, num_programs: int) -> int:
    """Number of multisets of size ``num_programs`` out of ``num_benchmarks``.

    This is the paper's combinations-with-repetition count,
    ``C(N + M - 1, M)``.
    """
    if num_benchmarks <= 0 or num_programs <= 0:
        raise WorkloadError("both num_benchmarks and num_programs must be positive")
    return math.comb(num_benchmarks + num_programs - 1, num_programs)


def enumerate_mixes(benchmarks: Sequence[str], num_programs: int) -> Iterator[WorkloadMix]:
    """Lazily enumerate every possible mix (combinations with repetition)."""
    if num_programs <= 0:
        raise WorkloadError("num_programs must be positive")
    if not benchmarks:
        raise WorkloadError("benchmark list must be non-empty")
    for combo in itertools.combinations_with_replacement(sorted(benchmarks), num_programs):
        yield WorkloadMix(programs=combo)


def sample_mixes(
    benchmarks: Sequence[str],
    num_programs: int,
    num_mixes: int,
    seed: int = 0,
    unique: bool = True,
) -> List[WorkloadMix]:
    """Draw random multi-program mixes.

    Programs within a mix are drawn uniformly with replacement from the
    benchmark list (any program can appear multiple times, as in the
    paper).  When ``unique`` is true, duplicate mixes are rejected so
    the sample contains ``num_mixes`` distinct mixes; if the space of
    mixes is smaller than ``num_mixes`` all mixes are returned.
    """
    if num_mixes <= 0:
        raise WorkloadError("num_mixes must be positive")
    if not benchmarks:
        raise WorkloadError("benchmark list must be non-empty")
    rng = np.random.default_rng(seed)
    names = sorted(benchmarks)
    total = count_mixes(len(names), num_programs)
    if unique and num_mixes >= total:
        return list(enumerate_mixes(names, num_programs))

    mixes: List[WorkloadMix] = []
    seen = set()
    # Rejection sampling; the space is astronomically larger than any
    # sample we draw, so collisions are rare.
    max_attempts = 50 * num_mixes + 1000
    attempts = 0
    while len(mixes) < num_mixes and attempts < max_attempts:
        attempts += 1
        picks = tuple(names[i] for i in rng.integers(0, len(names), size=num_programs))
        mix = WorkloadMix(programs=picks)
        if unique:
            if mix.programs in seen:
                continue
            seen.add(mix.programs)
        mixes.append(mix)
    if len(mixes) < num_mixes:
        raise WorkloadError(
            f"could not sample {num_mixes} unique mixes from a space of {total}"
        )
    return mixes


def sample_category_mixes(
    classification: Mapping[str, BenchmarkClass],
    num_programs: int,
    mixes_per_category: int,
    seed: int = 0,
    categories: Optional[Sequence[BenchmarkClass]] = None,
    mixed_fraction_mem: float = 0.5,
) -> List[WorkloadMix]:
    """Draw mixes within MEM / COMP / MIX categories (current practice).

    * a MEM-category mix contains only memory-intensive programs,
    * a COMP-category mix contains only compute-intensive programs,
    * a MIX-category mix combines both: roughly ``mixed_fraction_mem``
      of its slots hold MEM programs and the rest COMP programs.

    Benchmarks classified as :class:`BenchmarkClass.MIX` participate in
    the MIX category together with MEM and COMP programs.
    """
    if mixes_per_category <= 0:
        raise WorkloadError("mixes_per_category must be positive")
    if not 0 <= mixed_fraction_mem <= 1:
        raise WorkloadError("mixed_fraction_mem must be within [0, 1]")
    rng = np.random.default_rng(seed)
    chosen_categories = list(categories) if categories is not None else list(BenchmarkClass)

    mem_names = sorted(n for n, c in classification.items() if c == BenchmarkClass.MEM)
    comp_names = sorted(n for n, c in classification.items() if c == BenchmarkClass.COMP)
    mix_names = sorted(n for n, c in classification.items() if c == BenchmarkClass.MIX)

    def draw_from(pool: Sequence[str], count: int) -> List[str]:
        if not pool:
            raise WorkloadError("cannot draw programs from an empty category pool")
        return [pool[i] for i in rng.integers(0, len(pool), size=count)]

    result: List[WorkloadMix] = []
    for category in chosen_categories:
        for _ in range(mixes_per_category):
            if category == BenchmarkClass.MEM:
                programs = draw_from(mem_names or mix_names, num_programs)
            elif category == BenchmarkClass.COMP:
                programs = draw_from(comp_names or mix_names, num_programs)
            else:
                num_mem = int(round(num_programs * mixed_fraction_mem))
                num_comp = num_programs - num_mem
                mem_pool = mem_names + mix_names or comp_names
                comp_pool = comp_names + mix_names or mem_names
                programs = draw_from(mem_pool, num_mem) + draw_from(comp_pool, num_comp)
            result.append(WorkloadMix(programs=tuple(programs)))
    return result
