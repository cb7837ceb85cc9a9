"""Caching store for single-core profiles and their LLC traces.

Single-core simulation is the one-time cost of the paper's methodology;
the store makes sure it really is paid only once per (benchmark,
machine) pair within a process, and — optionally — across processes by
persisting its artefacts as ordinary
:class:`~repro.engine.cache.ResultCache` entries in a cache directory
(the campaign cache, which fleet workers on one host share).

Four kinds of artefacts are cached:

* the :class:`SingleCoreProfile` — all MPPM ever needs; one entry per
  (benchmark spec, machine);
* the :class:`LLCAccessTrace` of the same isolated run — needed only by
  the multi-core *reference* simulator; persisted as an
  :class:`LLCStream`, one entry per (benchmark spec, private
  hierarchy): the arrays once, beside the isolated cycle count of every
  LLC resolved on top of them.  A process that finds a trace there
  never generates it;
* the :class:`~repro.simulators.single_core.PrivateRun` of each
  (benchmark, private hierarchy) — the first profiling stage, shared
  by every LLC on top of it; kept in memory, never persisted, but
  handed from store to store inside a :class:`ProfileBundle`;
* beside it, the LLC stack distances of its stream, one array per LLC
  set count: the Table 2 LLCs come in fewer set counts than sizes (at
  1/16 scale #1 and #4 share 64 sets, #3 and #6 share 128), so LLCs
  resolved in separate calls share one distance pass.  The arrays are
  ``uint8``, capped at 255, which keeps every hit and SDC slot of an
  LLC with fewer than 255 ways; memory only, never handed on.

Without a cache directory nothing is persisted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.machine import MachineConfig
from repro.engine.cache import MISS, ResultCache, content_key
from repro.profiling.profile import SingleCoreProfile
from repro.profiling.profiler import ProfileBundle, ProfiledBenchmark, profile_from_run
from repro.simulators.llc_trace import LLCAccessTrace, LLCStream
from repro.simulators.single_core import PrivateRun, SingleCoreRunResult, SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.generator import TraceGenerator


class ProfileStore:
    """Caches profiles per (benchmark, machine).

    Profiling runs in two stages (see
    :mod:`repro.simulators.single_core`).  The store memoizes the first
    — trace generation plus private-level filtering, the expensive part
    — per (benchmark spec, :meth:`MachineConfig.private_key`), so the
    whole Table 2 design space costs one trace and one private replay
    per benchmark; only the LLC stage runs per (benchmark, machine),
    reading stack distances memoized per LLC set count.

    Parameters
    ----------
    num_instructions, interval_instructions, seed:
        The profiling configuration.
    cache_dir:
        Optional directory for JSON persistence of profiles and LLC
        streams, as entries of the store's own :class:`ResultCache`
        (memory-only without one).  Their content keys cover the full
        benchmark spec and the profiling configuration — never the
        workload — so workloads that share a bit-identical benchmark
        spec (``suite:spec29`` vs ``suite:spec29/scaled@8``) share
        entries, and two different specs with the same name never
        collide.
    """

    def __init__(
        self,
        num_instructions: int = 200_000,
        interval_instructions: int = 4_000,
        seed: int = 0,
        cache_dir: Optional[Path] = None,
    ) -> None:
        self.num_instructions = num_instructions
        self.interval_instructions = interval_instructions
        self.seed = seed
        self._cache = ResultCache(cache_dir)
        self._generator = TraceGenerator(num_instructions=num_instructions, seed=seed)
        self._profiles: Dict[Tuple[BenchmarkSpec, str], SingleCoreProfile] = {}
        self._traces: Dict[Tuple[BenchmarkSpec, str], LLCAccessTrace] = {}
        self._private_runs: Dict[Tuple[BenchmarkSpec, str], PrivateRun] = {}
        self._llc_distances: Dict[Tuple[BenchmarkSpec, str], Dict[int, np.ndarray]] = {}
        self._simulators: Dict[str, SingleCoreSimulator] = {}
        self.simulated_profiles = 0
        self.loaded_profiles = 0
        self.absorbed_profiles = 0
        self.generated_traces = 0
        self.loaded_traces = 0

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
        return self.get(spec, machine).profile

    def get_llc_trace(self, spec: BenchmarkSpec, machine: MachineConfig) -> LLCAccessTrace:
        """The LLC access trace of the isolated run (simulates if needed)."""
        cached = self._traces.get(self._key(spec, machine))
        if cached is not None:
            return cached
        return self.get(spec, machine).llc_trace

    def get(self, spec: BenchmarkSpec, machine: MachineConfig) -> ProfiledBenchmark:
        """Both the profile and the LLC trace for one benchmark."""
        return self.get_many(spec, [machine])[0]

    def get_many(
        self, spec: BenchmarkSpec, machines: Sequence[MachineConfig]
    ) -> List[ProfiledBenchmark]:
        """Profiles and LLC traces of one benchmark on several machines.

        A pair whose trace is cached (with its profile) is loaded, not
        simulated.  The rest share one trace and one private replay per
        private hierarchy, and the LLC stage computes stack distances
        once per distinct LLC set count.  A pair whose profile is
        already resident (e.g. loaded from disk) keeps it: only its LLC
        trace is built, and the profile is not written back.
        """
        pending: Dict[str, Dict[str, MachineConfig]] = {}
        for machine in machines:
            if self._key(spec, machine) not in self._traces:
                by_profile = pending.setdefault(machine.private_key(), {})
                by_profile.setdefault(machine.profile_key(), machine)
        for by_profile in pending.values():
            trace_key = self._trace_key(spec, next(iter(by_profile.values())))
            stream = self._cached_stream(trace_key)
            group = [
                machine
                for machine in by_profile.values()
                if not self._load_trace(spec, machine, stream)
            ]
            if not group:
                continue
            simulator = self._simulator_for(group[0])
            runs = simulator.resolve_llc_many(
                self._private_run(spec, group[0]),
                group,
                self._llc_distances.setdefault((spec, group[0].private_key()), {}),
            )
            for machine, run in zip(group, runs):
                self._record(spec, machine, run)
            self._put_stream(trace_key, spec, group, stream)
        out = []
        for machine in machines:
            key = self._key(spec, machine)
            out.append(ProfiledBenchmark(profile=self._profiles[key], llc_trace=self._traces[key]))
        return out

    def load_if_cached(
        self, spec: BenchmarkSpec, machine: MachineConfig, trace: bool = False
    ) -> bool:
        """Pull the pair's profile — and with ``trace`` its LLC trace — into memory.

        Unlike :meth:`get_profile` this never simulates: it returns
        ``True`` when the artefacts were already in memory or could be
        loaded from disk, ``False`` otherwise.
        """
        key = self._key(spec, machine)
        if trace:
            return key in self._traces or self._load_trace(
                spec, machine, self._cached_stream(self._trace_key(spec, machine))
            )
        if key in self._profiles:
            return True
        loaded = self._cache.get(self._content_key(spec, machine))
        if loaded is MISS:
            return False
        self._profiles[key] = loaded
        self.loaded_profiles += 1
        return True

    def bundle(self, spec: BenchmarkSpec, machines: Sequence[MachineConfig]) -> ProfileBundle:
        """:meth:`get_many`, packed with its stage-1 results for another store."""
        profiled = tuple(self.get_many(spec, machines))
        keys = dict.fromkeys((spec, machine.private_key()) for machine in machines)
        runs = tuple(self._private_runs[key] for key in keys if key in self._private_runs)
        return ProfileBundle(profiled=profiled, private_runs=runs)

    def absorb(
        self, spec: BenchmarkSpec, machines: Sequence[MachineConfig], bundle: ProfileBundle
    ) -> None:
        """Adopt one benchmark's bundle computed elsewhere (e.g. by an engine worker).

        The artefacts enter the in-memory and on-disk caches exactly as
        if this store had simulated them, but ``simulated_profiles`` is
        untouched — the simulation work was paid in another process.
        The bundle's stage-1 results join the in-memory memo, so a later
        LLC of the benchmark costs only the LLC stage, here and in
        workers forked from here.  A stream entry already on disk is
        left alone: workers that share the cache dir wrote it for these
        very machines.
        """
        for run in bundle.private_runs:
            self._private_runs.setdefault((spec, run.private_key), run)
        by_private: Dict[str, List[MachineConfig]] = {}
        for machine, profiled in zip(machines, bundle.profiled):
            key = self._key(spec, machine)
            self._profiles[key] = profiled.profile
            self._traces[key] = profiled.llc_trace
            self._cache.put(self._content_key(spec, machine), profiled.profile)
            self.absorbed_profiles += 1
            by_private.setdefault(machine.private_key(), []).append(machine)
        for group in by_private.values():
            trace_key = self._trace_key(spec, group[0])
            if trace_key not in self._cache:
                self._put_stream(trace_key, spec, group, None)

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

    def _trace_key(self, spec: BenchmarkSpec, machine: MachineConfig) -> str:
        # Like ``_content_key``, but per private hierarchy: the LLCStream
        # entry holds every LLC's trace on top of it.
        return content_key(
            "llc-trace",
            machine.private_key(),
            self.num_instructions,
            self.interval_instructions,
            self.seed,
            spec,
        )

    def _cached_stream(self, trace_key: str) -> Optional[LLCStream]:
        stream = self._cache.get(trace_key)
        return None if stream is MISS else stream

    def _load_trace(
        self, spec: BenchmarkSpec, machine: MachineConfig, stream: Optional[LLCStream]
    ) -> bool:
        """Take the pair's trace from ``stream`` (and its profile from the cache)."""
        if stream is None or machine.profile_key() not in stream.isolated_cycles:
            return False
        if not self.load_if_cached(spec, machine):
            return False
        self._traces[self._key(spec, machine)] = stream.trace(machine.profile_key())
        self.loaded_traces += 1
        return True

    def _put_stream(
        self,
        trace_key: str,
        spec: BenchmarkSpec,
        machines: Sequence[MachineConfig],
        known: Optional[LLCStream],
    ) -> None:
        """Cache the traces of ``machines`` (one private hierarchy) under ``trace_key``.

        ``known`` is the stream already cached under that key; its
        other LLCs are kept.  Of two processes writing one key at once
        the last write wins, and an LLC it lacks is resolved again on
        its next use.
        """
        traces = [self._traces[self._key(spec, machine)] for machine in machines]
        cycles = dict(known.isolated_cycles) if known is not None else {}
        for machine, trace in zip(machines, traces):
            cycles[machine.profile_key()] = trace.isolated_cycles
        self._cache.put(trace_key, LLCStream.of(traces[0], cycles))

    def _simulator_for(self, machine: MachineConfig) -> SingleCoreSimulator:
        # One simulator per private hierarchy: stage 1 reads only the
        # private levels, stage 2 takes the machine explicitly.
        key = machine.private_key()
        if key not in self._simulators:
            self._simulators[key] = SingleCoreSimulator(
                machine=machine, interval_instructions=self.interval_instructions
            )
        return self._simulators[key]

    def _private_run(self, spec: BenchmarkSpec, machine: MachineConfig) -> PrivateRun:
        key = (spec, machine.private_key())
        private_run = self._private_runs.get(key)
        if private_run is None:
            # The full trace is dropped as soon as stage 1 returns.
            trace = self._generator.generate(spec)
            self.generated_traces += 1
            private_run = self._simulator_for(machine).filter_private(trace)
            self._private_runs[key] = private_run
        return private_run

    def _record(self, spec: BenchmarkSpec, machine: MachineConfig, run: SingleCoreRunResult) -> None:
        key = self._key(spec, machine)
        self._traces[key] = run.llc_trace
        if key in self._profiles:
            return  # resident profile (e.g. loaded from disk): only the trace was missing
        profile = profile_from_run(run, machine)
        self._profiles[key] = profile
        self._cache.put(self._content_key(spec, machine), profile)
        self.simulated_profiles += 1
