"""The filtered last-level-cache access trace of one program.

The single-core simulator filters a benchmark's memory accesses through
the private L1/L2; only the accesses that miss in all private levels
reach the shared LLC.  The multi-core reference simulator replays these
filtered streams — one per co-running program — against a single shared
LLC, so it needs, per LLC access, the line address and the number of
core cycles the program spends *upstream* (computing, hitting in
private caches) between consecutive LLC accesses.

Traces persist (and travel between fleet hosts) as JSON: each array is
the base64 of its raw bytes plus its dtype, so a decoded trace is bit
for bit the one that was encoded.  The stream fields are shared with
the profiling stage-1 result
(:class:`~repro.simulators.single_core.PrivateRun`), which serialises
them the same way.  :class:`LLCStream` is the persisted
form: the arrays depend only on the private levels that filtered the
stream, so every LLC on top of one private hierarchy shares them.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.workloads.benchmark import BenchmarkSpec


class LLCTraceError(ValueError):
    """Raised for inconsistent LLC access traces."""


def encode_array(array: np.ndarray) -> Dict[str, str]:
    """A JSON-safe, bit-exact encoding of ``array`` (1-D, any dtype)."""
    array = np.ascontiguousarray(array)
    return {"dtype": array.dtype.str, "data": base64.b64encode(array.tobytes()).decode("ascii")}


def decode_array(data: Mapping[str, str]) -> np.ndarray:
    """Inverse of :func:`encode_array`; the result is read-only."""
    return np.frombuffer(base64.b64decode(data["data"]), dtype=np.dtype(data["dtype"]))


_ARRAYS = ("line", "insn", "upstream_cycle_gap")


def stream_to_dict(stream) -> Dict:
    """JSON form of an LLC stream: spec, length, the three arrays, tail cycles.

    :class:`LLCAccessTrace`, :class:`LLCStream` and
    :class:`~repro.simulators.single_core.PrivateRun` all carry these.
    """
    return {
        "spec": stream.spec.to_dict(),
        "num_instructions": stream.num_instructions,
        **{name: encode_array(getattr(stream, name)) for name in _ARRAYS},
        "tail_cycles": stream.tail_cycles,
    }


def stream_from_dict(data: Mapping) -> Dict:
    """Inverse of :func:`stream_to_dict`, as constructor keyword arguments."""
    return {
        "spec": BenchmarkSpec.from_dict(data["spec"]),
        "num_instructions": int(data["num_instructions"]),
        **{name: decode_array(data[name]) for name in _ARRAYS},
        "tail_cycles": float(data["tail_cycles"]),
    }


@dataclass(frozen=True)
class LLCAccessTrace:
    """Per-program input to the shared-LLC multi-core simulation.

    Attributes
    ----------
    spec:
        The benchmark specification (provides the name and MLP factor).
    num_instructions:
        Dynamic instruction count of the underlying trace.
    line:
        Cache-line address of each LLC access, in program order.
    insn:
        Dynamic instruction index at which each LLC access occurs.
    upstream_cycle_gap:
        Core cycles spent since the previous LLC access (base CPI plus
        exposed private-cache hit penalties); the shared-LLC penalty of
        the access itself is *not* included — the multi-core simulator
        adds it depending on whether the shared LLC hits or misses.
    tail_cycles:
        Core cycles spent after the last LLC access until the end of
        the trace.
    isolated_cycles:
        Total cycles of the isolated (single-core) run of the same
        trace on the same machine; kept so that consumers can compute
        slowdowns without re-deriving the isolated CPI.
    """

    spec: BenchmarkSpec
    num_instructions: int
    line: np.ndarray
    insn: np.ndarray
    upstream_cycle_gap: np.ndarray
    tail_cycles: float
    isolated_cycles: float

    def __post_init__(self) -> None:
        n = len(self.line)
        if len(self.insn) != n or len(self.upstream_cycle_gap) != n:
            raise LLCTraceError("LLC trace arrays must all have the same length")
        if n == 0:
            raise LLCTraceError(
                f"{self.spec.name}: the program never accesses the LLC; the multi-core "
                "simulation would be degenerate"
            )
        if self.num_instructions <= 0:
            raise LLCTraceError("num_instructions must be positive")
        if self.tail_cycles < 0:
            # Zero is legal: a trace may end right on its last LLC access.
            raise LLCTraceError(
                f"tail_cycles must be non-negative, got {self.tail_cycles}"
            )
        if self.isolated_cycles <= 0:
            raise LLCTraceError(
                f"isolated_cycles must be positive, got {self.isolated_cycles}"
            )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_llc_accesses(self) -> int:
        return len(self.line)

    @property
    def llc_accesses_per_kilo_instruction(self) -> float:
        return 1000.0 * self.num_llc_accesses / self.num_instructions

    @property
    def isolated_cpi(self) -> float:
        """Single-core CPI of the program on the profiled machine."""
        return self.isolated_cycles / self.num_instructions

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_llc_accesses} LLC accesses "
            f"({self.llc_accesses_per_kilo_instruction:.1f} per kilo-instruction), "
            f"isolated CPI {self.isolated_cpi:.3f}"
        )

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON (bit-exact)."""
        return {**stream_to_dict(self), "isolated_cycles": self.isolated_cycles}

    @classmethod
    def from_dict(cls, data: Mapping) -> "LLCAccessTrace":
        """Inverse of :meth:`to_dict`."""
        return cls(**stream_from_dict(data), isolated_cycles=float(data["isolated_cycles"]))


@dataclass(frozen=True)
class LLCStream:
    """One program's LLC stream behind one private hierarchy.

    Everything of an :class:`LLCAccessTrace` except ``isolated_cycles``
    depends only on the trace and the private levels that filtered it,
    so one stream serves every LLC on top of that hierarchy.
    ``isolated_cycles`` maps the :meth:`MachineConfig.profile_key` of
    each LLC the stream was resolved against to that run's isolated
    cycle count; :meth:`trace` rebuilds the machine's trace from it.
    """

    spec: BenchmarkSpec
    num_instructions: int
    line: np.ndarray
    insn: np.ndarray
    upstream_cycle_gap: np.ndarray
    tail_cycles: float
    isolated_cycles: Mapping[str, float]

    @classmethod
    def of(cls, trace: LLCAccessTrace, isolated_cycles: Mapping[str, float]) -> "LLCStream":
        """The stream behind ``trace``, with the given per-LLC cycle counts."""
        return cls(
            spec=trace.spec,
            num_instructions=trace.num_instructions,
            line=trace.line,
            insn=trace.insn,
            upstream_cycle_gap=trace.upstream_cycle_gap,
            tail_cycles=trace.tail_cycles,
            isolated_cycles=dict(isolated_cycles),
        )

    def trace(self, profile_key: str) -> LLCAccessTrace:
        """The trace of the LLC with ``profile_key`` (``KeyError`` if never resolved)."""
        return LLCAccessTrace(
            spec=self.spec,
            num_instructions=self.num_instructions,
            line=self.line,
            insn=self.insn,
            upstream_cycle_gap=self.upstream_cycle_gap,
            tail_cycles=self.tail_cycles,
            isolated_cycles=self.isolated_cycles[profile_key],
        )

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON (bit-exact)."""
        return {**stream_to_dict(self), "isolated_cycles": dict(self.isolated_cycles)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "LLCStream":
        """Inverse of :meth:`to_dict`."""
        cycles = {key: float(value) for key, value in data["isolated_cycles"].items()}
        return cls(**stream_from_dict(data), isolated_cycles=cycles)
