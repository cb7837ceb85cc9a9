"""Cache and memory configuration records.

A :class:`CacheConfig` describes one cache level: capacity,
associativity, line size, access latency and whether it is shared
between cores.  The record is immutable and hashable so that it can be
used as a cache key (the profile store keys profiles by the machine
configuration they were collected on).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


KIB = 1024
MIB = 1024 * KIB


class ConfigurationError(ValueError):
    """Raised when a machine/cache configuration is internally inconsistent."""


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of a single cache level.

    Parameters
    ----------
    name:
        Human-readable level name, e.g. ``"L1D"`` or ``"L3"``.
    size_bytes:
        Total capacity in bytes.
    associativity:
        Number of ways per set.  ``associativity == number of lines``
        makes the cache fully associative.
    line_size:
        Cache-line size in bytes (64 in the paper's setup).
    latency:
        Access (hit) latency in cycles.
    shared:
        Whether the cache is shared between all cores (the L3 in the
        paper) or private per core (L1/L2).
    """

    name: str
    size_bytes: int
    associativity: int
    line_size: int = 64
    latency: int = 1
    shared: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"{self.name}: size must be positive, got {self.size_bytes}")
        if self.line_size <= 0:
            raise ConfigurationError(f"{self.name}: line size must be positive, got {self.line_size}")
        if self.associativity <= 0:
            raise ConfigurationError(
                f"{self.name}: associativity must be positive, got {self.associativity}"
            )
        if self.latency < 0:
            raise ConfigurationError(f"{self.name}: latency must be non-negative, got {self.latency}")
        if self.size_bytes % self.line_size != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} is not a multiple of the line size {self.line_size}"
            )
        if self.num_lines % self.associativity != 0:
            raise ConfigurationError(
                f"{self.name}: {self.num_lines} lines cannot be divided into "
                f"{self.associativity}-way sets"
            )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (lines divided by associativity)."""
        return self.num_lines // self.associativity

    @property
    def is_fully_associative(self) -> bool:
        return self.num_sets == 1

    def with_size(self, size_bytes: int) -> "CacheConfig":
        """Return a copy with a different capacity."""
        return replace(self, size_bytes=size_bytes)

    def with_latency(self, latency: int) -> "CacheConfig":
        """Return a copy with a different access latency."""
        return replace(self, latency=latency)

    def describe(self) -> str:
        """Human-readable one-line description, e.g. ``"L3 512KB 8-way 16cyc shared"``."""
        if self.size_bytes % MIB == 0:
            size = f"{self.size_bytes // MIB}MB"
        elif self.size_bytes % KIB == 0:
            size = f"{self.size_bytes // KIB}KB"
        else:
            size = f"{self.size_bytes}B"
        sharing = "shared" if self.shared else "private"
        return f"{self.name} {size} {self.associativity}-way {self.latency}cyc {sharing}"


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory configuration.

    The paper uses a flat 200-cycle memory latency (Table 1).
    """

    latency: int = 200

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ConfigurationError(f"memory latency must be positive, got {self.latency}")
