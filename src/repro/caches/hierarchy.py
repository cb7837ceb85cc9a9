"""A multi-level cache hierarchy for one core.

The hierarchy chains the private cache levels (L1 data cache, L2) and
the last-level cache: an access walks down the levels until it hits,
filling every level it missed in on the way (inclusive behaviour).  The
result records which level served the access, which is all the core
timing model needs.

For multi-core simulation the last level is *shared*: the
:class:`MultiCoreSimulator` owns a single LLC object and each core owns
a private hierarchy that stops above it (``include_llc=False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config.machine import MachineConfig
from repro.caches.set_associative import SetAssociativeCache


@dataclass(frozen=True)
class HierarchyAccess:
    """Outcome of one access walked through the hierarchy.

    ``level_name`` is the name of the level that served the access, or
    ``"memory"`` when every level missed.  ``reached_llc`` tells
    whether the access was presented to the last-level cache (i.e.
    missed in all private levels), and ``llc_hit`` whether the LLC
    served it.
    """

    level_name: str
    level_index: int
    reached_llc: bool
    llc_hit: bool

    @property
    def served_by_memory(self) -> bool:
        return self.level_name == "memory"


class CacheHierarchy:
    """The private levels (and optionally the LLC) of one core."""

    def __init__(self, machine: MachineConfig, include_llc: bool = True) -> None:
        self.machine = machine
        self.include_llc = include_llc
        self.levels: List[SetAssociativeCache] = [
            SetAssociativeCache(config) for config in machine.private_levels
        ]
        self.llc: Optional[SetAssociativeCache] = (
            SetAssociativeCache(machine.llc) if include_llc else None
        )

    def reset(self) -> None:
        """Empty all levels."""
        for level in self.levels:
            level.reset()
        if self.llc is not None:
            self.llc.reset()

    @property
    def level_names(self) -> List[str]:
        names = [level.config.name for level in self.levels]
        if self.llc is not None:
            names.append(self.llc.config.name)
        return names

    def access(self, line: int, shared_llc: Optional[SetAssociativeCache] = None) -> HierarchyAccess:
        """Walk one access through the hierarchy.

        ``shared_llc`` supplies the last-level cache when the hierarchy
        was built with ``include_llc=False`` (multi-core simulation
        shares one LLC object between all cores' hierarchies).
        """
        for index, level in enumerate(self.levels):
            if level.access(line).hit:
                return HierarchyAccess(
                    level_name=level.config.name,
                    level_index=index,
                    reached_llc=False,
                    llc_hit=False,
                )
        llc = self.llc if self.llc is not None else shared_llc
        if llc is None:
            raise ValueError(
                "hierarchy has no last-level cache; pass shared_llc for shared-LLC simulation"
            )
        llc_index = len(self.levels)
        if llc.access(line).hit:
            return HierarchyAccess(
                level_name=llc.config.name,
                level_index=llc_index,
                reached_llc=True,
                llc_hit=True,
            )
        return HierarchyAccess(
            level_name="memory",
            level_index=llc_index + 1,
            reached_llc=True,
            llc_hit=False,
        )

    def access_private_only(self, line: int) -> bool:
        """Access only the private levels; returns True if any of them hit.

        Used by the single-core profiler to build the filtered LLC
        access stream without touching the LLC object twice.
        """
        for level in self.levels:
            if level.access(line).hit:
                return True
        return False

    def miss_rates(self) -> dict:
        """Per-level miss rates accumulated so far (by level name)."""
        rates = {level.config.name: level.miss_rate for level in self.levels}
        if self.llc is not None:
            rates[self.llc.config.name] = self.llc.miss_rate
        return rates
