"""Detailed trace-driven simulators.

This package is the stand-in for CMP$im, the detailed reference
simulator of the paper:

* :class:`SingleCoreSimulator` runs one benchmark in isolation through
  the full cache hierarchy; it produces the per-interval measurements
  that make up the single-core profile (CPI, memory CPI,
  stack-distance counters) and the filtered LLC access trace used by
  the multi-core simulator.  :meth:`~SingleCoreSimulator.run_reference`
  is its per-access test witness.
* :class:`MultiCoreSimulator` replays several programs' LLC access
  traces against one *shared* last-level cache, interleaving them in
  per-core-cycle order and restarting finished programs so contention
  persists until the slowest program completes (the FAME methodology).
  Its measured per-program multi-core CPIs are the reference that MPPM
  predictions are validated against.  The heap loop
  :meth:`~MultiCoreSimulator.run_reference` is its per-access test
  witness.
"""

from repro.simulators.llc_trace import LLCAccessTrace
from repro.simulators.single_core import (
    PrivateRun,
    SingleCoreRunResult,
    SingleCoreSimulator,
)
from repro.simulators.multi_core import (
    MultiCoreRunResult,
    MultiCoreSimulator,
    ProgramRunStats,
)

__all__ = [
    "LLCAccessTrace",
    "PrivateRun",
    "SingleCoreRunResult",
    "SingleCoreSimulator",
    "MultiCoreRunResult",
    "MultiCoreSimulator",
    "ProgramRunStats",
]
