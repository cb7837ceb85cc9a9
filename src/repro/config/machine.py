"""Whole-machine configuration.

A :class:`MachineConfig` ties together the core configuration, the
private cache levels, the shared last-level cache and main memory, plus
the number of cores.  It is the single object that both the detailed
simulators and MPPM receive to know what machine they are targeting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Tuple

from repro.config.cache_config import CacheConfig, ConfigurationError, MemoryConfig, KIB
from repro.config.core_config import CoreConfig


def _level_key(level: CacheConfig) -> str:
    return (
        f"{level.name}:{level.size_bytes}:{level.associativity}:"
        f"{level.line_size}:{level.latency}"
    )


def _default_private_levels() -> Tuple[CacheConfig, ...]:
    return (
        CacheConfig(name="L1D", size_bytes=32 * KIB, associativity=8, latency=1),
        CacheConfig(name="L2", size_bytes=256 * KIB, associativity=8, latency=10),
    )


@dataclass(frozen=True)
class MachineConfig:
    """Configuration of a multi-core machine.

    Parameters
    ----------
    num_cores:
        Number of cores; each core runs one program of the
        multi-program workload mix.
    core:
        The per-core pipeline configuration.
    private_levels:
        The private cache levels in access order (L1 data cache first,
        then L2).  The instruction cache is not modelled separately:
        the paper's workloads are data-cache bound and the model only
        acts on the shared LLC.
    llc:
        The shared last-level cache.  Must have ``shared=True``.
    memory:
        Main-memory latency.
    name:
        Optional label, e.g. ``"config #1"``; used in reports.
    """

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    private_levels: Tuple[CacheConfig, ...] = field(default_factory=_default_private_levels)
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L3", size_bytes=512 * KIB, associativity=8, latency=16, shared=True
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    name: str = "baseline"

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigurationError(f"num_cores must be positive, got {self.num_cores}")
        if not self.llc.shared:
            raise ConfigurationError("the last-level cache must be marked shared=True")
        for level in self.private_levels:
            if level.shared:
                raise ConfigurationError(
                    f"private cache level {level.name} must not be marked shared"
                )
        line_sizes = {level.line_size for level in self.private_levels} | {self.llc.line_size}
        if len(line_sizes) != 1:
            raise ConfigurationError(
                f"all cache levels must use the same line size, got {sorted(line_sizes)}"
            )

    @property
    def line_size(self) -> int:
        """Cache-line size shared by all levels."""
        return self.llc.line_size

    @property
    def cache_levels(self) -> Tuple[CacheConfig, ...]:
        """All cache levels in access order (private levels, then the LLC)."""
        return self.private_levels + (self.llc,)

    def with_num_cores(self, num_cores: int) -> "MachineConfig":
        """Return a copy targeting a different core count."""
        return replace(self, num_cores=num_cores)

    def single_core(self) -> "MachineConfig":
        """The same machine restricted to one core.

        Single-core profiling runs a benchmark in isolation on the same
        core architecture and cache hierarchy (paper §2): this helper
        produces that configuration.
        """
        return self.with_num_cores(1)

    def private_key(self) -> str:
        """A stable string identifying what private-level filtering depends on.

        The core and the private cache levels: everything the first
        profiling stage (:meth:`SingleCoreSimulator.filter_private`)
        reads.  Machines that differ only in their LLC or memory — the
        whole Table 2 design space — share one key.
        """
        return self._private_key

    def profile_key(self) -> str:
        """A stable string identifying everything the single-core profile depends on.

        Two machine configurations that differ only in the number of
        cores share the same profiles; the key therefore excludes
        ``num_cores``.
        """
        return self._profile_key

    # Both keys are built once per machine: sweeps look them up per
    # item.  ``cached_property`` writes straight to the instance
    # ``__dict__`` (bypassing the frozen ``__setattr__``), so the memo
    # never touches the fields behind ``repr``, ``==`` and ``hash``.
    @cached_property
    def _private_key(self) -> str:
        parts = [f"core=w{self.core.width}"]
        parts.extend(_level_key(level) for level in self.private_levels)
        return "|".join(parts)

    @cached_property
    def _profile_key(self) -> str:
        return f"{self.private_key()}|{_level_key(self.llc)}|mem:{self.memory.latency}"

    def describe(self) -> str:
        """Multi-line human-readable description of the machine."""
        lines = [f"{self.name}: {self.num_cores} cores, {self.core.width}-wide"]
        for level in self.cache_levels:
            lines.append("  " + level.describe())
        lines.append(f"  memory {self.memory.latency} cycles")
        return "\n".join(lines)
