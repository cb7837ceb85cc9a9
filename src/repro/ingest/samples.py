"""PMU sample streams: the raw input of the real-trace ingestion path.

The input shape mirrors what a per-core PMU sampler captures (see
SNIPPETS.md §1, ``profile_core.c``: LLC-loads, LLC-misses and
instructions-retired read per core at a fixed sampling interval): a
CSV or JSONL file with one row per ``(core, sample window)`` —

``core, timestamp, llc_loads, llc_misses, instructions``

— plus a *machine descriptor* JSON describing the profiled machine's
cache geometry (in lines) and clock frequency.  The descriptor is what
lets the fitter translate observed LLC traffic into reuse depths and
timestamps into cycles.

Everything malformed raises :class:`IngestError`, a
:class:`~repro.workloads.benchmark.WorkloadError` subclass, so parse
failures surface as registry/CLI errors and service 400s with one
consistent message shape.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import CacheConfig, MachineConfig, MemoryConfig
from repro.workloads.benchmark import WorkloadError

#: Columns every sample row must carry (CSV header / JSONL keys).
REQUIRED_COLUMNS = ("core", "timestamp", "llc_loads", "llc_misses", "instructions")

#: Largest accepted count: counts are parsed through a float, which
#: holds every integer up to 2**53 exactly.
MAX_COUNT = 2**53

_MAX_FLOAT = float(np.finfo(np.float64).max)


class IngestError(WorkloadError):
    """Raised for malformed sample streams or machine descriptors."""


#: Machine descriptor fields that must be integers (geometry, latencies).
_INTEGER_FIELDS = ("line_size", "memory_latency") + tuple(
    f"{level}_{kind}"
    for level in ("l1", "l2", "llc")
    for kind in ("lines", "associativity", "latency")
)


# ---------------------------------------------------------------------------
# Machine descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineDescriptor:
    """The profiled machine, as the fitter needs to know it.

    Cache capacities are in *lines* (the unit reuse depths are measured
    in); ``frequency_ghz`` converts sample timestamps (seconds) into
    cycles.  ``cores`` optionally declares the core ids the stream may
    contain — a row naming any other core is rejected, which catches
    samplers that mixed streams from different sockets into one file.
    """

    name: str = "profiled"
    frequency_ghz: float = 2.0
    line_size: int = 64
    l1_lines: int = 32
    l1_associativity: int = 8
    l1_latency: int = 1
    l2_lines: int = 256
    l2_associativity: int = 8
    l2_latency: int = 10
    llc_lines: int = 512
    llc_associativity: int = 8
    llc_latency: int = 16
    memory_latency: int = 200
    cores: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        fields = [(name, getattr(self, name)) for name in _INTEGER_FIELDS]
        for name, value in fields + [("cores", core) for core in self.cores]:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise IngestError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.frequency_ghz < math.inf:
            raise IngestError(
                f"frequency_ghz must be positive and finite, got {self.frequency_ghz}"
            )
        if self.line_size <= 0:
            raise IngestError(f"line_size must be positive, got {self.line_size}")
        for label, lines, ways in (
            ("l1", self.l1_lines, self.l1_associativity),
            ("l2", self.l2_lines, self.l2_associativity),
            ("llc", self.llc_lines, self.llc_associativity),
        ):
            if lines <= 0 or ways <= 0:
                raise IngestError(f"{label}: lines and associativity must be positive")
            if lines % ways != 0:
                raise IngestError(
                    f"{label}: {lines} lines cannot be divided into {ways}-way sets"
                )
        if not self.l1_lines < self.l2_lines < self.llc_lines:
            raise IngestError(
                "cache levels must grow: need l1_lines < l2_lines < llc_lines, got "
                f"{self.l1_lines} / {self.l2_lines} / {self.llc_lines}"
            )
        if self.memory_latency <= 0:
            raise IngestError(f"memory_latency must be positive, got {self.memory_latency}")

    @property
    def private_lines(self) -> int:
        """Capacity of the largest private level — the 'reaches the LLC' boundary."""
        return self.l2_lines

    def to_machine_config(self) -> MachineConfig:
        """A single-core :class:`MachineConfig` with this geometry (the fit machine)."""
        return MachineConfig(
            num_cores=1,
            private_levels=(
                CacheConfig(
                    name="L1D",
                    size_bytes=self.l1_lines * self.line_size,
                    associativity=self.l1_associativity,
                    line_size=self.line_size,
                    latency=self.l1_latency,
                ),
                CacheConfig(
                    name="L2",
                    size_bytes=self.l2_lines * self.line_size,
                    associativity=self.l2_associativity,
                    line_size=self.line_size,
                    latency=self.l2_latency,
                ),
            ),
            llc=CacheConfig(
                name="L3",
                size_bytes=self.llc_lines * self.line_size,
                associativity=self.llc_associativity,
                line_size=self.line_size,
                latency=self.llc_latency,
                shared=True,
            ),
            memory=MemoryConfig(latency=self.memory_latency),
            name=self.name,
        )

    @classmethod
    def from_machine(
        cls,
        machine: MachineConfig,
        cores: Sequence[int] = (),
        frequency_ghz: float = 2.0,
        name: Optional[str] = None,
    ) -> "MachineDescriptor":
        """Describe an in-repo machine (the synthesizer's inverse of
        :meth:`to_machine_config`)."""
        if len(machine.private_levels) != 2:
            raise IngestError(
                "MachineDescriptor models an L1/L2/LLC hierarchy; got "
                f"{len(machine.private_levels)} private levels"
            )
        l1, l2 = machine.private_levels
        return cls(
            name=name if name is not None else machine.name,
            frequency_ghz=frequency_ghz,
            line_size=machine.line_size,
            l1_lines=l1.num_lines,
            l1_associativity=l1.associativity,
            l1_latency=l1.latency,
            l2_lines=l2.num_lines,
            l2_associativity=l2.associativity,
            l2_latency=l2.latency,
            llc_lines=machine.llc.num_lines,
            llc_associativity=machine.llc.associativity,
            llc_latency=machine.llc.latency,
            memory_latency=machine.memory.latency,
            cores=tuple(cores),
        )

    def to_dict(self) -> Dict:
        return {**asdict(self), "cores": list(self.cores)}

    @classmethod
    def from_dict(cls, data: Dict) -> "MachineDescriptor":
        if not isinstance(data, dict):
            raise IngestError("machine descriptor must be a JSON object")
        known = {key for key in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = sorted(set(data) - known)
        if unknown:
            raise IngestError(
                f"unknown machine descriptor field(s): {', '.join(unknown)}"
            )
        kwargs = dict(data)
        if "cores" in kwargs:
            if not isinstance(kwargs["cores"], list):
                raise IngestError("machine descriptor 'cores' must be a list of ints")
            kwargs["cores"] = tuple(kwargs["cores"])
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise IngestError(f"bad machine descriptor: {error}") from None


# ---------------------------------------------------------------------------
# Sample streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreSamples:
    """One core's time series, already validated and delta-decoded.

    Arrays are per sample window, in time order.  ``cycles`` comes from
    the timestamp deltas and the descriptor's clock frequency (the
    first window is measured from t=0).
    """

    core: int
    timestamps: np.ndarray
    instructions: np.ndarray
    llc_loads: np.ndarray
    llc_misses: np.ndarray
    cycles: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.timestamps)

    @property
    def total_instructions(self) -> int:
        return int(self.instructions.sum())


@dataclass(frozen=True)
class SampleStream:
    """A parsed PMU sample file: per-core series plus the machine."""

    machine: MachineDescriptor
    cores: Tuple[CoreSamples, ...]


def _to_int(value: object, column: str, row: int) -> int:
    # Through float: tolerates "4000.0" from spreadsheet exports.
    number = _to_float(value, column, row)
    if number < 0:
        raise IngestError(f"row {row}: column {column!r} must be non-negative, got {value!r}")
    if number > MAX_COUNT:
        raise IngestError(
            f"row {row}: column {column!r} is out of range, got {value!r} "
            f"(counts are at most 2**53)"
        )
    return int(number)


def _to_float(value: object, column: str, row: int) -> float:
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise IngestError(
            f"row {row}: column {column!r} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(number):
        raise IngestError(f"row {row}: column {column!r} must be finite, got {value!r}")
    return number


def _rows_from_csv(text: str) -> List[Dict[str, object]]:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise IngestError("sample file is empty")
    header = [column.strip().lower() for column in lines[0].split(",")]
    missing = sorted(set(REQUIRED_COLUMNS) - set(header))
    if missing:
        raise IngestError(
            f"missing required column(s): {', '.join(missing)} "
            f"(expected a header with {', '.join(REQUIRED_COLUMNS)})"
        )
    rows: List[Dict[str, object]] = []
    for number, line in enumerate(lines[1:], start=2):
        values = [value.strip() for value in line.split(",")]
        if len(values) != len(header):
            raise IngestError(
                f"row {number}: expected {len(header)} values, got {len(values)}"
            )
        rows.append(dict(zip(header, values)))
    return rows


def _rows_from_jsonl(text: str) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise IngestError(f"row {number}: invalid JSON ({error.msg})") from None
        if not isinstance(record, dict):
            raise IngestError(f"row {number}: each JSONL line must be an object")
        missing = sorted(set(REQUIRED_COLUMNS) - set(record))
        if missing:
            raise IngestError(
                f"row {number}: missing required column(s): {', '.join(missing)}"
            )
        rows.append(record)
    if not rows:
        raise IngestError("sample file is empty")
    return rows


def parse_samples(
    text: str, machine: MachineDescriptor, fmt: str = "csv"
) -> SampleStream:
    """Parse CSV or JSONL sample text into a validated :class:`SampleStream`."""
    if fmt == "csv":
        rows = _rows_from_csv(text)
    elif fmt == "jsonl":
        rows = _rows_from_jsonl(text)
    else:
        raise IngestError(f"unknown sample format {fmt!r}; use 'csv' or 'jsonl'")

    per_core: Dict[int, List[Tuple[float, int, int, int, int]]] = {}
    known_cores = set(machine.cores)
    first_data_row = 2 if fmt == "csv" else 1
    for offset, record in enumerate(rows):
        row = first_data_row + offset
        core = _to_int(record["core"], "core", row)
        if known_cores and core not in known_cores:
            raise IngestError(
                f"row {row}: unknown core id {core}; the machine descriptor "
                f"declares cores {sorted(known_cores)}"
            )
        timestamp = _to_float(record["timestamp"], "timestamp", row)
        if timestamp < 0:
            raise IngestError(f"row {row}: timestamp must be non-negative, got {timestamp}")
        loads = _to_int(record["llc_loads"], "llc_loads", row)
        misses = _to_int(record["llc_misses"], "llc_misses", row)
        instructions = _to_int(record["instructions"], "instructions", row)
        if misses > loads:
            raise IngestError(
                f"row {row}: llc_misses ({misses}) exceeds llc_loads ({loads})"
            )
        per_core.setdefault(core, []).append((timestamp, instructions, loads, misses, row))

    cores: List[CoreSamples] = []
    cycles_per_second = machine.frequency_ghz * 1e9
    for core in sorted(per_core):
        series = per_core[core]
        timestamps = np.array([entry[0] for entry in series], dtype=np.float64)
        if np.any(np.diff(timestamps) <= 0):
            raise IngestError(
                f"core {core}: non-monotonic timestamps — samples must be "
                "strictly increasing in time per core"
            )
        instructions = np.array([entry[1] for entry in series], dtype=np.int64)
        if instructions.sum() <= 0:
            raise IngestError(f"core {core}: no instructions retired in any sample")
        windows = np.diff(timestamps, prepend=0.0)
        too_long = windows > _MAX_FLOAT / cycles_per_second / 2
        if too_long.any():
            row = series[int(np.argmax(too_long))][4]
            raise IngestError(
                f"row {row}: column 'timestamp' is out of range: its window "
                f"overflows the cycle count at {machine.frequency_ghz} GHz"
            )
        cycles = windows * cycles_per_second
        cores.append(
            CoreSamples(
                core=core,
                timestamps=timestamps,
                instructions=instructions,
                llc_loads=np.array([entry[2] for entry in series], dtype=np.int64),
                llc_misses=np.array([entry[3] for entry in series], dtype=np.int64),
                cycles=cycles,
            )
        )
    return SampleStream(machine=machine, cores=tuple(cores))


# ---------------------------------------------------------------------------
# File-level loaders
# ---------------------------------------------------------------------------


def read_machine_descriptor(path: Union[str, Path]) -> MachineDescriptor:
    """Load a machine descriptor JSON file."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"machine descriptor not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise IngestError(f"cannot parse machine descriptor {path}: {error}") from None
    return MachineDescriptor.from_dict(data)


def default_machine_path(samples_path: Union[str, Path]) -> Optional[Path]:
    """The descriptor conventionally paired with a samples file.

    ``<stem>.machine.json`` next to the samples wins; a shared
    ``machine.json`` in the same directory is the fallback.
    """
    samples_path = Path(samples_path)
    sibling = samples_path.with_name(samples_path.stem + ".machine.json")
    if sibling.is_file():
        return sibling
    shared = samples_path.parent / "machine.json"
    if shared.is_file():
        return shared
    return None


def load_samples(
    samples_path: Union[str, Path],
    machine: Union[MachineDescriptor, str, Path, None] = None,
) -> SampleStream:
    """Load a sample file (+ its machine descriptor) from disk.

    ``machine`` may be a descriptor object, a path to one, or ``None``
    to use the :func:`default_machine_path` convention.  Format is
    picked by suffix: ``.jsonl`` is JSONL, everything else CSV.
    """
    samples_path = Path(samples_path)
    if not samples_path.is_file():
        raise IngestError(f"sample file not found: {samples_path}")
    if machine is None:
        machine_path = default_machine_path(samples_path)
        if machine_path is None:
            raise IngestError(
                f"no machine descriptor for {samples_path}: put one at "
                f"{samples_path.stem}.machine.json or machine.json beside the "
                "samples, or pass --machine"
            )
        descriptor = read_machine_descriptor(machine_path)
    elif isinstance(machine, MachineDescriptor):
        descriptor = machine
    else:
        descriptor = read_machine_descriptor(machine)
    fmt = "jsonl" if samples_path.suffix.lower() == ".jsonl" else "csv"
    return parse_samples(samples_path.read_text(encoding="utf-8"), descriptor, fmt=fmt)
