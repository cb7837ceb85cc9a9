"""Single-core profiles: the one-time input to MPPM.

The paper's workflow (its Figure 1) is: run every benchmark once in
isolation on the target machine, store the per-interval profile
(single-core CPI, memory CPI, stack-distance counters), and feed those
profiles to MPPM for any number of multi-program mixes.  This package
holds the profile data model, the profiler that produces profiles from
benchmark specs, and a caching store so that experiments never pay the
single-core simulation cost twice.
"""

from repro.profiling.profile import ProfileWindow, SingleCoreProfile
from repro.profiling.profiler import ProfileBundle, Profiler, ProfiledBenchmark
from repro.profiling.store import ProfileStore

__all__ = [
    "ProfileWindow",
    "SingleCoreProfile",
    "Profiler",
    "ProfiledBenchmark",
    "ProfileBundle",
    "ProfileStore",
]
