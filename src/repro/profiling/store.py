"""Caching store for single-core profiles (and their LLC traces).

Single-core simulation is the one-time cost of the paper's methodology;
the store makes sure it really is paid only once per (benchmark,
machine) pair within a process, and — optionally — across processes by
persisting profiles as ordinary :class:`~repro.engine.cache.ResultCache`
entries in a cache directory.

Two kinds of artefacts are cached:

* the :class:`SingleCoreProfile` — all MPPM ever needs; persisted to
  disk when a cache directory is configured, and
* the :class:`LLCAccessTrace` of the same isolated run — needed only by
  the multi-core *reference* simulator; kept in memory and regenerated
  on demand (it is deterministic, so regeneration is always consistent
  with the profile).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.config.machine import MachineConfig
from repro.engine.cache import MISS, ResultCache, content_key
from repro.profiling.profile import SingleCoreProfile
from repro.profiling.profiler import ProfiledBenchmark, Profiler
from repro.simulators.llc_trace import LLCAccessTrace
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.suite import BenchmarkSuite


class ProfileStore:
    """Caches profiles per (benchmark, machine).

    Parameters
    ----------
    num_instructions, interval_instructions, seed, kernel:
        Passed through to the :class:`Profiler` when a profile has to
        be produced.  ``kernel`` selects the replay kernel
        (``"vectorized"`` by default); both kernels yield bit-identical
        profiles, so cached artefacts are shared between them.
    cache_dir:
        Optional directory for JSON persistence of profiles, as entries
        of the store's own :class:`ResultCache` (memory-only without
        one).  A profile's content key covers the full benchmark spec
        and the profiling configuration — never the workload — so
        workloads that share a bit-identical benchmark spec
        (``suite:spec29`` vs ``suite:spec29/scaled@8``) share one
        entry, and two different specs with the same name never
        collide.
    """

    def __init__(
        self,
        num_instructions: int = 200_000,
        interval_instructions: int = 4_000,
        seed: int = 0,
        cache_dir: Optional[Path] = None,
        kernel: str = "vectorized",
    ) -> None:
        self.num_instructions = num_instructions
        self.interval_instructions = interval_instructions
        self.seed = seed
        self.kernel = kernel
        self._cache = ResultCache(cache_dir)
        self._profiles: Dict[Tuple[BenchmarkSpec, str], SingleCoreProfile] = {}
        self._traces: Dict[Tuple[BenchmarkSpec, str], LLCAccessTrace] = {}
        self._profilers: Dict[str, Profiler] = {}
        self.simulated_profiles = 0
        self.loaded_profiles = 0
        self.absorbed_profiles = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def get_profile(self, spec: BenchmarkSpec, machine: MachineConfig) -> SingleCoreProfile:
        """Profile (or fetch the cached profile of) one benchmark on one machine."""
        key = self._key(spec, machine)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached
        if self.load_if_cached(spec, machine):
            return self._profiles[key]
        return self._simulate(spec, machine).profile

    def get_llc_trace(self, spec: BenchmarkSpec, machine: MachineConfig) -> LLCAccessTrace:
        """The LLC access trace of the isolated run (simulates if needed)."""
        key = self._key(spec, machine)
        cached = self._traces.get(key)
        if cached is not None:
            return cached
        return self._simulate(spec, machine).llc_trace

    def get(self, spec: BenchmarkSpec, machine: MachineConfig) -> ProfiledBenchmark:
        """Both the profile and the LLC trace for one benchmark."""
        key = self._key(spec, machine)
        if key in self._profiles and key in self._traces:
            return ProfiledBenchmark(profile=self._profiles[key], llc_trace=self._traces[key])
        return self._simulate(spec, machine)

    def preload(self, suite: BenchmarkSuite, machine: MachineConfig) -> int:
        """Warm the full (profile, LLC trace) bundle for a whole suite.

        Long-running callers (the prediction service) pay the one-time
        profiling cost once at startup and then share the in-memory
        bundles read-only across every subsequent request — no
        re-profiling, no re-pickling per call.  Returns the number of
        (benchmark, machine) pairs now resident.
        """
        for spec in suite:
            self.get(spec, machine)
        return len(suite)

    def has(self, spec: BenchmarkSpec, machine: MachineConfig) -> bool:
        """Whether the pair has an in-memory profile (disk is not probed)."""
        return self._key(spec, machine) in self._profiles

    def load_if_cached(self, spec: BenchmarkSpec, machine: MachineConfig) -> bool:
        """Pull the pair's profile into memory if it is cached anywhere.

        Unlike :meth:`get_profile` this never simulates: it returns
        ``True`` when the profile was already in memory or could be
        loaded from disk, ``False`` otherwise.  Note a disk hit only
        provides the profile — the LLC trace still requires a
        simulation, so callers that need traces must not rely on this.
        """
        key = self._key(spec, machine)
        if key in self._profiles:
            return True
        loaded = self._cache.get(self._content_key(spec, machine))
        if loaded is MISS:
            return False
        self._profiles[key] = loaded
        self.loaded_profiles += 1
        return True

    def absorb(
        self, spec: BenchmarkSpec, machine: MachineConfig, profiled: ProfiledBenchmark
    ) -> None:
        """Adopt a profile computed elsewhere (e.g. by an engine worker).

        The artefacts enter the in-memory and on-disk caches exactly as
        if this store had simulated them, but ``simulated_profiles`` is
        untouched — the simulation work was paid in another process.
        """
        self._adopt(spec, machine, profiled)
        self.absorbed_profiles += 1

    def cached_pairs(self) -> int:
        """Number of (benchmark, machine) pairs with an in-memory profile."""
        return len(self._profiles)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _key(self, spec: BenchmarkSpec, machine: MachineConfig) -> Tuple[BenchmarkSpec, str]:
        # Keyed by the full (frozen, hashable) spec, not just its name, so
        # that redefining a benchmark under the same name never returns a
        # stale profile.
        return (spec, machine.profile_key())

    def _content_key(self, spec: BenchmarkSpec, machine: MachineConfig) -> str:
        # The persistent twin of ``_key``, plus the profiling config;
        # only computed on an in-memory miss (it costs a SHA-256).
        return content_key(
            "profile",
            machine.profile_key(),
            self.num_instructions,
            self.interval_instructions,
            self.seed,
            spec,
        )

    def _profiler_for(self, machine: MachineConfig) -> Profiler:
        key = machine.profile_key()
        if key not in self._profilers:
            self._profilers[key] = Profiler(
                machine=machine,
                num_instructions=self.num_instructions,
                interval_instructions=self.interval_instructions,
                seed=self.seed,
                kernel=self.kernel,
            )
        return self._profilers[key]

    def _simulate(self, spec: BenchmarkSpec, machine: MachineConfig) -> ProfiledBenchmark:
        profiled = self._profiler_for(machine).profile(spec)
        self._adopt(spec, machine, profiled)
        self.simulated_profiles += 1
        return profiled

    def _adopt(
        self, spec: BenchmarkSpec, machine: MachineConfig, profiled: ProfiledBenchmark
    ) -> None:
        key = self._key(spec, machine)
        self._profiles[key] = profiled.profile
        self._traces[key] = profiled.llc_trace
        self._cache.put(self._content_key(spec, machine), profiled.profile)
