"""Machine configuration objects.

This package models the processor configuration of the paper's Table 1
(baseline core, private L1 instruction/data caches, private L2, shared
L3, main memory) and Table 2 (the six last-level-cache design points
that the design-space experiments of Sections 5 and 6 rank against
each other).

The central type is :class:`MachineConfig`, a frozen description of a
multi-core machine: one :class:`CoreConfig`, per-level
:class:`CacheConfig` objects and a :class:`MemoryConfig`.  Experiment
code obtains the paper's configurations from
:func:`baseline_machine` and :func:`llc_design_space`, optionally
scaled down with :func:`scaled` so that short synthetic traces exercise
the hierarchy the way the paper's 1B-instruction traces exercise the
real sizes (see :mod:`repro.config.scaling`).
"""

from repro.config.cache_config import CacheConfig, MemoryConfig
from repro.config.core_config import CoreConfig
from repro.config.machine import MachineConfig
from repro.config.llc_configs import (
    LLC_CONFIGS,
    baseline_machine,
    llc_design_space,
    machine_with_llc,
)
from repro.config.scaling import scaled, scale_cache

__all__ = [
    "CacheConfig",
    "MemoryConfig",
    "CoreConfig",
    "MachineConfig",
    "LLC_CONFIGS",
    "baseline_machine",
    "llc_design_space",
    "machine_with_llc",
    "scaled",
    "scale_cache",
]
