"""CPI-stack accounting.

The paper computes the *memory CPI* — the fraction of the single-core
CPI spent waiting for memory — using the counter architecture of
Eyerman et al. (ASPLOS 2006) or a perfect-LLC simulation run.  Our
simulator tracks the equivalent information directly: every cycle it
adds is attributed to exactly one CPI-stack component, so the memory
CPI falls out of the accounting without a second run (the test suite
cross-checks it against the two-run method, with a closed-form
perfect-LLC CPI).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CPIStack:
    """Cycle counts split by what the core was doing.

    Components
    ----------
    base:
        Cycles spent computing (including L1 hits, which the 4-wide
        out-of-order core hides completely).
    private_cache:
        Exposed cycles of hits in the private L2.
    llc:
        Exposed cycles of hits in the shared last-level cache.
    memory:
        Exposed cycles of LLC misses (accesses to main memory) — the
        paper's "memory CPI" numerator.
    """

    base: float = 0.0
    private_cache: float = 0.0
    llc: float = 0.0
    memory: float = 0.0
    instructions: int = 0

    @property
    def total_cycles(self) -> float:
        return self.base + self.private_cache + self.llc + self.memory

    @property
    def cpi(self) -> float:
        """Total CPI (0 when no instructions were recorded)."""
        return self.total_cycles / self.instructions if self.instructions else 0.0

    @property
    def memory_cpi(self) -> float:
        """The memory component of the CPI (cycles waiting for memory per instruction)."""
        return self.memory / self.instructions if self.instructions else 0.0

    @property
    def memory_fraction(self) -> float:
        """Memory cycles as a fraction of all cycles."""
        total = self.total_cycles
        return self.memory / total if total else 0.0
