"""Scaling of machine configurations to short synthetic traces.

The paper simulates 1B-instruction SimPoints against 32KB L1 caches and
512KB–2MB shared L3 caches.  Our synthetic traces are much shorter (a
few hundred thousand instructions) so, unscaled, they would barely warm
up a 2MB LLC and contention would vanish.  The experiment harness
therefore scales every cache capacity down by a common factor while
keeping associativities, latencies and capacity *ratios* intact.  The
contention behaviour MPPM models depends on the ratio of the combined
working sets to the LLC capacity and on the associativity, both of
which survive this joint scaling.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.cache_config import CacheConfig, ConfigurationError
from repro.config.machine import MachineConfig


def scale_cache(cache: CacheConfig, scale: int) -> CacheConfig:
    """Scale one cache level's capacity down by ``scale``.

    The scaled cache keeps the line size, associativity and latency of
    the original; only the number of sets shrinks.  The capacity must
    remain at least one full set.
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    if scale == 1:
        return cache
    min_size = cache.line_size * cache.associativity
    new_size = cache.size_bytes // scale
    if new_size < min_size:
        new_size = min_size
    # Round down to a whole number of sets.
    set_bytes = cache.line_size * cache.associativity
    new_size = max(set_bytes, (new_size // set_bytes) * set_bytes)
    return replace(cache, size_bytes=new_size)


def scaled(machine: MachineConfig, scale: int) -> MachineConfig:
    """Scale all cache capacities of ``machine`` down by ``scale``.

    Latencies, associativities, core parameters and the memory latency
    are untouched.  ``scale == 1`` returns the machine unchanged.
    """
    if scale == 1:
        return machine
    return replace(
        machine,
        private_levels=tuple(scale_cache(level, scale) for level in machine.private_levels),
        llc=scale_cache(machine.llc, scale),
        name=f"{machine.name} (1/{scale} scale)",
    )
