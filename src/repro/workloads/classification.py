"""Benchmark classification into MEM / COMP / MIX classes.

Section 5 of the paper describes "current practice": architects often
classify benchmarks into memory-intensive and compute-intensive
classes and then randomly pick multi-program mixes from those classes
(e.g. 4 memory-intensive mixes, 4 compute-intensive mixes, 4 mixed
mixes).  This module provides that classification: :func:`classify_benchmark`
works from the benchmark *specification* (no simulation needed) and
estimates the fraction of instructions expected to access beyond the
private caches.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.suite import BenchmarkSuite


class BenchmarkClass(str, Enum):
    """Workload class used for category-based mix selection."""

    MEM = "MEM"
    COMP = "COMP"
    MIX = "MIX"


#: Default boundary (in lines) between "fits the private caches" and
#: "spills to the shared LLC / memory", tuned to the default experiment
#: scale where the private L2 holds 256 lines.
DEFAULT_PRIVATE_LINES = 256


def memory_intensity(spec: BenchmarkSpec, private_lines: int = DEFAULT_PRIVATE_LINES) -> float:
    """Expected off-private-cache accesses per instruction.

    For each reuse bucket that (partially) extends beyond the private
    cache capacity, the corresponding probability mass is counted as
    off-chip traffic; brand-new lines always count.  The result is the
    per-instruction rate of accesses expected to reach the shared LLC
    or memory — a cheap proxy for memory intensity.
    """
    beyond = spec.reuse.new_probability
    for low, high, probability in spec.reuse.probabilities():
        if high <= private_lines:
            continue
        if low >= private_lines:
            beyond += probability
        else:
            # The bucket straddles the boundary: count the fraction of
            # its (uniform) depth range that lies beyond it.
            beyond += probability * (high - private_lines) / (high - low)
    return beyond * spec.mem_ref_fraction


def classify_benchmark(
    spec: BenchmarkSpec,
    mem_threshold: float = 0.012,
    comp_threshold: float = 0.004,
    private_lines: int = DEFAULT_PRIVATE_LINES,
) -> BenchmarkClass:
    """Classify one benchmark from its specification.

    Benchmarks whose expected off-private-cache access rate exceeds
    ``mem_threshold`` are MEM; below ``comp_threshold`` they are COMP;
    in between they are MIX.
    """
    intensity = memory_intensity(spec, private_lines=private_lines)
    if intensity >= mem_threshold:
        return BenchmarkClass.MEM
    if intensity <= comp_threshold:
        return BenchmarkClass.COMP
    return BenchmarkClass.MIX


def classify_suite(
    suite: BenchmarkSuite,
    mem_threshold: float = 0.012,
    comp_threshold: float = 0.004,
) -> Dict[str, BenchmarkClass]:
    """Classify every benchmark of a suite; returns name → class."""
    return {
        spec.name: classify_benchmark(
            spec, mem_threshold=mem_threshold, comp_threshold=comp_threshold
        )
        for spec in suite
    }
