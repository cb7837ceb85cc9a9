"""Benchmark specifications for the synthetic workload suite.

A :class:`BenchmarkSpec` captures, per benchmark, everything the trace
generator needs to produce a deterministic memory-access trace whose
cache behaviour mimics a particular kind of program:

* ``base_cpi`` — the non-memory CPI of the program (compute intensity),
* ``mem_ref_fraction`` — how many instructions are loads/stores,
* ``reuse`` — a :class:`ReuseProfile`: a distribution over LRU-stack
  reuse depths (in cache lines) plus a probability of touching a brand
  new line.  This is what determines hit/miss behaviour at every cache
  level and is the knob that makes a benchmark cache-friendly,
  LLC-sensitive or streaming.
* ``working_set_lines`` — the footprint cap; new-line accesses beyond
  it wrap around, turning streaming behaviour into capacity behaviour,
* ``mlp`` — memory-level parallelism: the effective memory latency seen
  by the core is ``memory latency / mlp``,
* ``phases`` — optional time-varying behaviour: the trace is divided
  into phases, each of which scales the reuse/memory parameters.  The
  paper stresses that MPPM models time-varying phase behaviour, so the
  suite contains several strongly phased benchmarks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np


class WorkloadError(ValueError):
    """Raised for invalid benchmark or workload specifications."""


@dataclass(frozen=True)
class ReuseProfile:
    """A distribution over temporal-reuse depths, in cache lines.

    ``buckets`` is a sequence of ``(max_depth, weight)`` pairs: with
    probability proportional to ``weight`` an access reuses a line at a
    uniformly random depth in ``(previous bucket's max_depth,
    max_depth]`` of the program's private LRU stack.  ``new_weight`` is
    the probability weight of touching a line never accessed before
    (streaming / cold behaviour).  Weights need not be normalised.
    """

    buckets: Tuple[Tuple[int, float], ...]
    new_weight: float = 0.0

    def __post_init__(self) -> None:
        if not self.buckets and self.new_weight <= 0:
            raise WorkloadError("a reuse profile needs at least one bucket or a new-line weight")
        previous = 0
        for depth, weight in self.buckets:
            if depth <= previous:
                raise WorkloadError(
                    f"reuse buckets must have strictly increasing depths, got {depth} after {previous}"
                )
            if weight < 0:
                raise WorkloadError(f"bucket weights must be non-negative, got {weight}")
            previous = depth
        if self.new_weight < 0:
            raise WorkloadError(f"new-line weight must be non-negative, got {self.new_weight}")
        if self.total_weight <= 0:
            raise WorkloadError("reuse profile has zero total weight")

    @property
    def total_weight(self) -> float:
        return sum(weight for _, weight in self.buckets) + self.new_weight

    def probabilities(self) -> Tuple[Tuple[int, int, float], ...]:
        """Normalised ``(low_depth, high_depth, probability)`` triples.

        ``low_depth`` is exclusive, ``high_depth`` inclusive — an access
        drawn from the triple reuses a line at a uniform depth in
        ``[low_depth + 1, high_depth]``.  The new-line probability is
        ``1 - sum(probabilities)``.
        """
        total = self.total_weight
        triples = []
        previous = 0
        for depth, weight in self.buckets:
            triples.append((previous, depth, weight / total))
            previous = depth
        return tuple(triples)

    @property
    def new_probability(self) -> float:
        """Probability of touching a brand-new line."""
        return self.new_weight / self.total_weight

    def scaled(self, depth_scale: float = 1.0, new_scale: float = 1.0) -> "ReuseProfile":
        """Return a profile with depths and/or the new-line weight scaled.

        Used by phases to make a benchmark temporarily more or less
        cache-friendly without redefining the whole distribution.
        """
        if depth_scale <= 0 or new_scale < 0:
            raise WorkloadError("scale factors must be positive (new_scale may be zero)")
        buckets = []
        previous = 0
        for depth, weight in self.buckets:
            new_depth = max(previous + 1, int(round(depth * depth_scale)))
            buckets.append((new_depth, weight))
            previous = new_depth
        return ReuseProfile(buckets=tuple(buckets), new_weight=self.new_weight * new_scale)


@dataclass(frozen=True)
class PhaseSpec:
    """One execution phase of a benchmark.

    ``fraction`` of the benchmark's instructions belong to this phase.
    The remaining fields multiply the benchmark-level parameters while
    the phase is active, producing time-varying behaviour.
    """

    fraction: float
    cpi_multiplier: float = 1.0
    mem_fraction_multiplier: float = 1.0
    reuse_depth_multiplier: float = 1.0
    new_line_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise WorkloadError(f"phase fraction must be in (0, 1], got {self.fraction}")
        for value, label in (
            (self.cpi_multiplier, "cpi_multiplier"),
            (self.mem_fraction_multiplier, "mem_fraction_multiplier"),
            (self.reuse_depth_multiplier, "reuse_depth_multiplier"),
        ):
            if value <= 0:
                raise WorkloadError(f"{label} must be positive, got {value}")
        if self.new_line_multiplier < 0:
            raise WorkloadError(
                f"new_line_multiplier must be non-negative, got {self.new_line_multiplier}"
            )


def _single_phase() -> Tuple[PhaseSpec, ...]:
    return (PhaseSpec(fraction=1.0),)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Complete specification of one synthetic benchmark."""

    name: str
    base_cpi: float = 0.6
    mem_ref_fraction: float = 0.3
    reuse: ReuseProfile = field(
        default_factory=lambda: ReuseProfile(buckets=((16, 0.7), (128, 0.2), (1024, 0.1)))
    )
    working_set_lines: int = 4096
    mlp: float = 1.5
    phases: Tuple[PhaseSpec, ...] = field(default_factory=_single_phase)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("benchmark name must be non-empty")
        if self.base_cpi <= 0:
            raise WorkloadError(f"{self.name}: base CPI must be positive, got {self.base_cpi}")
        if not 0 < self.mem_ref_fraction < 1:
            raise WorkloadError(
                f"{self.name}: mem_ref_fraction must be in (0, 1), got {self.mem_ref_fraction}"
            )
        if self.working_set_lines <= 0:
            raise WorkloadError(
                f"{self.name}: working_set_lines must be positive, got {self.working_set_lines}"
            )
        if self.mlp <= 0:
            raise WorkloadError(f"{self.name}: mlp must be positive, got {self.mlp}")
        if not self.phases:
            raise WorkloadError(f"{self.name}: at least one phase is required")
        total_fraction = sum(phase.fraction for phase in self.phases)
        if not np.isclose(total_fraction, 1.0, atol=1e-6):
            raise WorkloadError(
                f"{self.name}: phase fractions must sum to 1, got {total_fraction}"
            )

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    def phase_boundaries(self, num_instructions: int) -> Tuple[int, ...]:
        """Instruction indices at which each phase ends (cumulative)."""
        boundaries = []
        cumulative = 0.0
        for phase in self.phases:
            cumulative += phase.fraction
            boundaries.append(int(round(cumulative * num_instructions)))
        boundaries[-1] = num_instructions
        return tuple(boundaries)

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "base_cpi": self.base_cpi,
            "mem_ref_fraction": self.mem_ref_fraction,
            "reuse": {
                "buckets": [[depth, weight] for depth, weight in self.reuse.buckets],
                "new_weight": self.reuse.new_weight,
            },
            "working_set_lines": self.working_set_lines,
            "mlp": self.mlp,
            "phases": [asdict(phase) for phase in self.phases],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BenchmarkSpec":
        """Inverse of :meth:`to_dict`; the rebuilt spec compares equal.

        Raises ``KeyError``/``TypeError``/``ValueError`` (including
        :class:`WorkloadError`) for malformed data.
        """
        reuse = data["reuse"]
        return cls(
            name=data["name"],
            base_cpi=data["base_cpi"],
            mem_ref_fraction=data["mem_ref_fraction"],
            reuse=ReuseProfile(
                buckets=tuple((int(depth), float(weight)) for depth, weight in reuse["buckets"]),
                new_weight=float(reuse["new_weight"]),
            ),
            working_set_lines=data["working_set_lines"],
            mlp=data["mlp"],
            phases=tuple(PhaseSpec(**phase) for phase in data["phases"]),
            seed=data["seed"],
        )

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"{self.name}: base CPI {self.base_cpi:.2f}, "
            f"{self.mem_ref_fraction:.0%} memory refs, "
            f"working set {self.working_set_lines} lines, "
            f"{self.num_phases} phase(s)"
        )


def validate_suite(specs: Sequence[BenchmarkSpec]) -> None:
    """Check that a collection of specs has unique names."""
    names = [spec.name for spec in specs]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise WorkloadError(f"duplicate benchmark names in suite: {sorted(duplicates)}")
