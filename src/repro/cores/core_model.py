"""Additive out-of-order core timing model.

The model charges every dynamic instruction its benchmark-specific base
CPI (which absorbs the pipeline width, dependences and L1 hits — the
paper's cores hide L1 hits completely) and adds, per memory access, an
*exposed* latency that depends on which level of the hierarchy served
it:

* L1 hit — fully hidden by the out-of-order core (0 exposed cycles),
* L2 / LLC hit — the level's access latency divided by the benchmark's
  memory-level parallelism (MLP) factor,
* LLC miss — the main-memory latency divided by the MLP factor.

Dividing by the MLP factor models that an out-of-order core overlaps
independent long-latency accesses; the paper's model makes the same
assumption implicitly when it carries the single-core *average* LLC
miss penalty over to multi-core execution.  Crucially, the same timing
model is used for single-core profiling, for the detailed multi-core
reference simulation and (through the profile) by MPPM, so the three
are mutually consistent — exactly the relationship CMP$im and MPPM have
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.machine import MachineConfig
from repro.workloads.benchmark import BenchmarkSpec


@dataclass(frozen=True)
class AccessPenalties:
    """Exposed cycles per access for one benchmark on one machine."""

    private_levels: tuple  # exposed cycles for a hit in each private level
    llc_hit: float
    memory: float


class CoreTimingModel:
    """Computes exposed access penalties and aggregates cycles.

    Parameters
    ----------
    machine:
        The machine configuration (latencies are read from it).
    spec:
        The benchmark running on the core (its MLP factor discounts all
        latencies beyond the L1).
    """

    def __init__(self, machine: MachineConfig, spec: BenchmarkSpec) -> None:
        self.machine = machine
        self.spec = spec
        mlp = spec.mlp
        private = []
        for index, level in enumerate(machine.private_levels):
            if index == 0:
                # L1 hits are hidden in the base CPI.
                private.append(0.0)
            else:
                private.append(level.latency / mlp)
        self._penalties = AccessPenalties(
            private_levels=tuple(private),
            llc_hit=machine.llc.latency / mlp,
            memory=machine.memory.latency / mlp,
        )

    @property
    def penalties(self) -> AccessPenalties:
        return self._penalties

    def private_hit_penalty(self, level_index: int) -> float:
        """Exposed cycles for a hit in private level ``level_index`` (0 = L1)."""
        return self._penalties.private_levels[level_index]

    @property
    def llc_hit_penalty(self) -> float:
        """Exposed cycles for a hit in the shared last-level cache."""
        return self._penalties.llc_hit

    @property
    def memory_penalty(self) -> float:
        """Exposed cycles for an LLC miss (access to main memory)."""
        return self._penalties.memory

    def base_cycles(self, instructions: float, cpi_multiplier: float = 1.0) -> float:
        """Non-memory cycles for ``instructions`` dynamic instructions."""
        if instructions < 0:
            raise ValueError(f"instructions must be non-negative, got {instructions}")
        return instructions * self.spec.base_cpi * cpi_multiplier

    def describe(self) -> str:
        """One-line summary of the exposed penalties."""
        privates = ", ".join(
            f"{level.name}={penalty:.1f}"
            for level, penalty in zip(self.machine.private_levels, self._penalties.private_levels)
        )
        return (
            f"{self.spec.name} on {self.machine.name}: {privates}, "
            f"LLC hit={self._penalties.llc_hit:.1f}, memory={self._penalties.memory:.1f} "
            f"exposed cycles per access (MLP {self.spec.mlp:.1f})"
        )
