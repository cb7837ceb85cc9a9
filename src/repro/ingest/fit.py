"""Fit phase-segmented :class:`BenchmarkSpec` models to PMU samples.

The fitter turns one core's sample series into a synthetic benchmark
whose single-core replay reproduces the observed behaviour on the
profiled machine:

1. **Segment** the per-window (miss rate, access rate, CPI) series into
   phases (:mod:`repro.ingest.segment`).
2. **Anchor** a base :class:`~repro.workloads.benchmark.ReuseProfile`
   on the busiest phase.  The profile has three mass points placed by
   the machine descriptor's cache geometry: a near bucket (hits the
   private levels, never reaches the LLC), an LLC-hit bucket between
   the private capacity and the LLC capacity, and the new-line weight
   (LLC misses).  The observed LLC access rate sets how much mass
   reaches the LLC; the observed miss ratio splits that mass between
   the hit bucket and new lines.
3. **Solve per phase** for the three
   :class:`~repro.workloads.benchmark.PhaseSpec` knobs —
   ``new_line_multiplier`` from the phase's miss-odds ratio,
   ``mem_fraction_multiplier`` from its access rate, and
   ``cpi_multiplier`` from its non-memory CPI (observed CPI minus the
   exposed-latency estimate of its LLC traffic).
4. **Refine**: replay the candidate spec through the real
   :class:`~repro.simulators.single_core.SingleCoreSimulator` on the
   descriptor's machine, compare per-phase replayed rates against the
   targets, and apply clipped multiplicative corrections — a few
   rounds of coordinate descent against the very simulator that will
   consume the fitted workload.

The final replay's residuals become the fit report: per-phase target
vs replayed miss rate / access rate / CPI, plus per-core coverage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ingest.samples import CoreSamples, IngestError, MachineDescriptor, SampleStream
from repro.ingest.segment import Segment, segment_series
from repro.simulators.single_core import SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec, PhaseSpec, ReuseProfile
from repro.workloads.generator import TraceGenerator

#: Floor on the fitted non-memory CPI (a real core never reaches 0).
_MIN_BASE_CPI = 0.15
#: The trace generator caps the effective per-phase memory fraction here.
_MAX_MEM_FRACTION = 0.95
#: Floor on the effective per-phase memory fraction.  Trace cycles ride
#: on memory accesses, so a phase with (almost) no loads can produce
#: zero-cycle profiling intervals; phases with no *LLC* traffic keep a
#: normal load stream and suppress LLC reach via the reuse weights.
_MIN_MEM_FRACTION = 0.05
#: Miss rates are clipped here wherever they parameterise odds, so a
#: fully-streaming phase (miss rate 1.0) keeps a tiny hit-bucket weight
#: and the odds stay finite.
_MAX_MISS_RATE = 0.995


def _miss_odds(miss_rate: float) -> float:
    """Miss odds with the miss rate clipped to ``_MAX_MISS_RATE``."""
    clipped = min(max(miss_rate, 0.0), _MAX_MISS_RATE)
    return clipped / (1.0 - clipped)


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the fitting pipeline (all deterministic)."""

    num_instructions: int = 120_000
    max_phases: int = 6
    min_phase_samples: int = 3
    min_gain: float = 0.04
    rounds: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_instructions <= 0:
            raise IngestError(f"num_instructions must be positive, got {self.num_instructions}")
        if self.max_phases < 1:
            raise IngestError(f"max_phases must be >= 1, got {self.max_phases}")
        if self.min_phase_samples < 1:
            raise IngestError(
                f"min_phase_samples must be >= 1, got {self.min_phase_samples}"
            )
        if self.min_gain < 0:
            raise IngestError(f"min_gain must be non-negative, got {self.min_gain}")
        if self.rounds < 0:
            raise IngestError(f"rounds must be non-negative, got {self.rounds}")

    @property
    def interval_instructions(self) -> int:
        """Replay interval length (the usual ~50-interval structure)."""
        return max(1, self.num_instructions // 50)

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "FitOptions":
        try:
            return cls(**data)
        except TypeError as error:
            raise IngestError(f"bad fit options: {error}") from None


@dataclass(frozen=True)
class PhaseFit:
    """Per-phase fit residuals: what was asked for vs what replay gives."""

    index: int
    fraction: float
    num_samples: int
    target_miss_rate: float
    replayed_miss_rate: float
    target_access_rate: float
    replayed_access_rate: float
    target_cpi: float
    replayed_cpi: float

    @property
    def miss_rate_error(self) -> float:
        """Absolute miss-rate residual."""
        return abs(self.replayed_miss_rate - self.target_miss_rate)

    @property
    def access_rate_error(self) -> float:
        """Relative access-rate residual."""
        if self.target_access_rate <= 0:
            return abs(self.replayed_access_rate)
        return abs(self.replayed_access_rate - self.target_access_rate) / self.target_access_rate

    @property
    def cpi_error(self) -> float:
        """Relative CPI residual."""
        if self.target_cpi <= 0:
            return abs(self.replayed_cpi)
        return abs(self.replayed_cpi - self.target_cpi) / self.target_cpi

    @property
    def has_memory_traffic(self) -> bool:
        """Whether the phase has enough LLC traffic for a meaningful miss rate.

        A phase observed with fewer than one LLC access per 1,000
        instructions has no statistically meaningful miss rate; its
        residual is excluded from :attr:`CoreFit.max_miss_rate_error`.
        """
        return self.target_access_rate >= 1e-3


@dataclass(frozen=True)
class CoreFit:
    """One fitted core: the spec plus its fit-quality report."""

    core: int
    spec: BenchmarkSpec
    phases: Tuple[PhaseFit, ...]
    coverage: float
    num_samples: int

    @property
    def max_miss_rate_error(self) -> float:
        """Largest per-phase miss-rate residual, over phases with LLC traffic."""
        errors = [
            phase.miss_rate_error for phase in self.phases if phase.has_memory_traffic
        ]
        return max(errors) if errors else 0.0

    @property
    def max_access_rate_error(self) -> float:
        errors = [
            phase.access_rate_error for phase in self.phases if phase.has_memory_traffic
        ]
        return max(errors) if errors else 0.0

    @property
    def max_cpi_error(self) -> float:
        return max(phase.cpi_error for phase in self.phases)


@dataclass(frozen=True)
class _PhaseTargets:
    """Observed per-phase rates, instruction-weighted over a segment."""

    fraction: float
    num_samples: int
    access_rate: float  # LLC loads per instruction
    miss_rate: float  # LLC misses per LLC load
    cpi: float


def _phase_targets(samples: CoreSamples, segments: Sequence[Segment]) -> List[_PhaseTargets]:
    total_instructions = float(samples.instructions.sum())
    targets: List[_PhaseTargets] = []
    for segment in segments:
        sel = slice(segment.start, segment.stop)
        instructions = float(samples.instructions[sel].sum())
        loads = float(samples.llc_loads[sel].sum())
        misses = float(samples.llc_misses[sel].sum())
        cycles = float(samples.cycles[sel].sum())
        targets.append(
            _PhaseTargets(
                fraction=instructions / total_instructions,
                num_samples=segment.num_samples,
                access_rate=loads / instructions,
                miss_rate=misses / loads if loads else 0.0,
                cpi=cycles / instructions,
            )
        )
    # Phase fractions must sum to exactly 1 for BenchmarkSpec.
    correction = 1.0 - sum(target.fraction for target in targets[:-1])
    targets[-1] = replace(targets[-1], fraction=correction)
    return targets


def _base_reuse(
    machine: MachineDescriptor, access_rate: float, miss_rate: float
) -> Tuple[ReuseProfile, float]:
    """The base-phase reuse profile and memory-reference fraction.

    Three mass points anchored on the cache geometry: reuse depths in
    the near bucket stay inside the private levels; the hit bucket sits
    between the private capacity and the LLC capacity (an LLC hit in
    expectation); new lines miss the LLC.  ``access_rate`` fixes how
    much mass reaches the LLC given the memory-reference fraction, and
    ``miss_rate`` splits it between the hit bucket and new lines.
    """
    priv = machine.private_lines
    llc = machine.llc_lines
    near_depth = max(1, min(8, priv // 4))
    hit_low = max(near_depth + 1, priv + (llc - priv) // 2)
    hit_high = max(hit_low + 1, priv + 3 * (llc - priv) // 4)

    # mem_ref_fraction: enough headroom that the LLC-reaching share stays
    # below 1 even for the most access-heavy phase.
    mem_fraction = float(np.clip(4.0 * access_rate, 0.25, 0.6))
    mem_fraction = max(mem_fraction, min(0.9, access_rate / 0.98))
    reach = min(0.98, access_rate / mem_fraction)

    clipped_miss = min(max(miss_rate, 0.0), _MAX_MISS_RATE)
    new_weight = max(clipped_miss * reach, 1e-4)
    hit_weight = max((1.0 - clipped_miss) * reach, 1e-4)
    near_weight = max(1.0 - reach, 1e-3)
    profile = ReuseProfile(
        buckets=((near_depth, near_weight), (hit_low, 0.0), (hit_high, hit_weight)),
        new_weight=new_weight,
    )
    return profile, mem_fraction


def _exposed_memory_cpi(
    machine: MachineDescriptor, access_rate: float, miss_rate: float, mlp: float
) -> float:
    """Estimated memory CPI of the observed LLC traffic (exposed latency)."""
    per_access = (1.0 - miss_rate) * machine.llc_latency + miss_rate * machine.memory_latency
    return access_rate * per_access / mlp


def _initial_spec(
    core: int,
    machine: MachineDescriptor,
    targets: Sequence[_PhaseTargets],
    options: FitOptions,
) -> BenchmarkSpec:
    base_index = max(
        range(len(targets)), key=lambda i: (targets[i].fraction, -i)
    )
    base = targets[base_index]
    reuse, mem_fraction = _base_reuse(machine, base.access_rate, base.miss_rate)
    # Memory-level parallelism: high enough that every phase's exposed
    # memory cost fits under its observed CPI (streaming programs hide
    # most of their miss latency; a fixed low MLP would put the memory
    # CPI floor above the whole observed CPI).
    mlp = 1.5
    for target in targets:
        exposed_serial = _exposed_memory_cpi(
            machine, target.access_rate, target.miss_rate, 1.0
        )
        mlp = max(mlp, exposed_serial / max(target.cpi - _MIN_BASE_CPI, 0.05))
    mlp = float(min(mlp, 16.0))
    base_cpi = max(
        _MIN_BASE_CPI,
        base.cpi - _exposed_memory_cpi(machine, base.access_rate, base.miss_rate, mlp),
    )

    base_odds = max(_miss_odds(base.miss_rate), 1e-4)
    near_weight = reuse.buckets[0][1]

    phases: List[PhaseSpec] = []
    for target in targets:
        # new_line_multiplier: match the phase's miss odds exactly (the
        # base phase lands on a multiplier of 1 by construction).
        new_mult = float(np.clip(_miss_odds(target.miss_rate) / base_odds, 1e-3, 100.0))
        # mem_fraction_multiplier: match the phase's LLC access rate given
        # how much reuse mass now reaches the LLC.
        phase_new = reuse.new_weight * new_mult
        phase_reach = (reuse.buckets[-1][1] + phase_new) / (
            near_weight + reuse.buckets[-1][1] + phase_new
        )
        wanted = target.access_rate / max(mem_fraction * phase_reach, 1e-9)
        mem_mult = float(
            np.clip(
                wanted,
                _MIN_MEM_FRACTION / mem_fraction,
                _MAX_MEM_FRACTION / mem_fraction,
            )
        )
        # cpi_multiplier: match the phase's non-memory CPI.
        phase_base_cpi = max(
            _MIN_BASE_CPI,
            target.cpi
            - _exposed_memory_cpi(machine, target.access_rate, target.miss_rate, mlp),
        )
        phases.append(
            PhaseSpec(
                fraction=target.fraction,
                cpi_multiplier=phase_base_cpi / base_cpi,
                mem_fraction_multiplier=mem_mult,
                reuse_depth_multiplier=1.0,
                new_line_multiplier=new_mult,
            )
        )
    return BenchmarkSpec(
        name=f"pmu-c{core}",
        base_cpi=base_cpi,
        mem_ref_fraction=mem_fraction,
        reuse=reuse,
        working_set_lines=max(4 * machine.llc_lines, 2048),
        mlp=mlp,
        phases=tuple(phases),
        seed=options.seed,
    )


def _replay_rates(
    spec: BenchmarkSpec, machine: MachineDescriptor, options: FitOptions
) -> List[Tuple[float, float, float]]:
    """Replay ``spec`` on the fit machine; per-phase (access rate, miss rate, CPI)."""
    trace = TraceGenerator(num_instructions=options.num_instructions, seed=0).generate(spec)
    run = SingleCoreSimulator(
        machine.to_machine_config(), interval_instructions=options.interval_instructions
    ).run(trace)
    boundaries = spec.phase_boundaries(options.num_instructions)
    sums = np.zeros((len(boundaries), 4), dtype=np.float64)  # insn, loads, misses, cycles
    position = 0
    columns = (run.instructions, run.llc_accesses, run.llc_misses, run.interval_cycles)
    for row in zip(*(column.tolist() for column in columns)):
        instructions = row[0]
        midpoint = position + instructions / 2.0
        phase = int(np.searchsorted(boundaries, midpoint, side="left"))
        phase = min(phase, len(boundaries) - 1)
        sums[phase] += row
        position += instructions
    rates: List[Tuple[float, float, float]] = []
    for insn, loads, misses, cycles in sums:
        if insn <= 0:
            rates.append((0.0, 0.0, 0.0))
            continue
        rates.append(
            (loads / insn, misses / loads if loads else 0.0, cycles / insn)
        )
    return rates


def _odds_ratio(target: float, replayed: float) -> float:
    """Multiplicative correction that moves the replayed miss rate to the target."""
    if target <= 0:
        return 0.25  # drive the new-line weight down
    if replayed <= 0:
        return 4.0  # no misses replayed yet, push weight up
    return _miss_odds(target) / max(_miss_odds(replayed), 1e-4)


def _refine(
    spec: BenchmarkSpec,
    machine: MachineDescriptor,
    targets: Sequence[_PhaseTargets],
    options: FitOptions,
) -> BenchmarkSpec:
    mem_cap = _MAX_MEM_FRACTION / spec.mem_ref_fraction
    mem_floor = _MIN_MEM_FRACTION / spec.mem_ref_fraction
    for _ in range(options.rounds):
        rates = _replay_rates(spec, machine, options)
        phases: List[PhaseSpec] = []
        for phase, target, (access, miss, cpi) in zip(spec.phases, targets, rates):
            new_mult = phase.new_line_multiplier * float(
                np.clip(_odds_ratio(target.miss_rate, miss), 0.25, 4.0)
            )
            new_mult = float(np.clip(new_mult, 1e-3, 100.0))
            wanted = target.access_rate / access if access > 0 else 4.0
            mem_mult = phase.mem_fraction_multiplier * float(
                np.clip(wanted, 0.25, 4.0)
            )
            mem_mult = float(np.clip(mem_mult, mem_floor, mem_cap))
            # An access residual the clipped memory fraction cannot
            # absorb spills into the new-line weight: cold lines change
            # how many references reach the LLC at all.  The spill is
            # square-root damped (reach responds sublinearly to the
            # weight) and skipped when it would fight the miss-rate
            # correction — raising cold traffic raises the miss rate,
            # so only phases at or above their miss target may spill up.
            applied = mem_mult / phase.mem_fraction_multiplier
            leftover = wanted / applied
            if leftover < 1.0 or target.miss_rate >= miss - 1e-3:
                new_mult *= float(np.clip(leftover, 0.25, 4.0)) ** 0.5
                new_mult = float(np.clip(new_mult, 1e-3, 100.0))
            if cpi > 0:
                cpi_mult = phase.cpi_multiplier * float(
                    np.clip(target.cpi / cpi, 0.5, 2.0)
                )
            else:
                cpi_mult = phase.cpi_multiplier
            phases.append(
                replace(
                    phase,
                    cpi_multiplier=cpi_mult,
                    mem_fraction_multiplier=mem_mult,
                    new_line_multiplier=new_mult,
                )
            )
        spec = replace(spec, phases=tuple(phases))
    return spec


def fit_core(
    samples: CoreSamples, machine: MachineDescriptor, options: FitOptions = FitOptions()
) -> CoreFit:
    """Fit one core's sample series into a :class:`CoreFit`."""
    keep = samples.instructions > 0
    num_total = samples.num_samples
    instructions = samples.instructions[keep]
    loads = samples.llc_loads[keep]
    misses = samples.llc_misses[keep]
    cycles = samples.cycles[keep]
    if len(instructions) == 0:
        raise IngestError(f"core {samples.core}: no usable sample windows")
    kept = CoreSamples(
        core=samples.core,
        timestamps=samples.timestamps[keep],
        instructions=instructions,
        llc_loads=loads,
        llc_misses=misses,
        cycles=cycles,
    )
    features = np.stack(
        [
            misses / np.maximum(loads, 1),
            loads / instructions,
            cycles / instructions,
        ],
        axis=1,
    )
    segments = segment_series(
        features,
        max_phases=options.max_phases,
        min_samples=min(options.min_phase_samples, len(instructions)),
        min_gain=options.min_gain,
    )
    targets = _phase_targets(kept, segments)
    spec = _initial_spec(samples.core, machine, targets, options)
    spec = _refine(spec, machine, targets, options)

    rates = _replay_rates(spec, machine, options)
    phases = tuple(
        PhaseFit(
            index=index,
            fraction=target.fraction,
            num_samples=target.num_samples,
            target_miss_rate=target.miss_rate,
            replayed_miss_rate=miss,
            target_access_rate=target.access_rate,
            replayed_access_rate=access,
            target_cpi=target.cpi,
            replayed_cpi=cpi,
        )
        for index, (target, (access, miss, cpi)) in enumerate(zip(targets, rates))
    )
    return CoreFit(
        core=samples.core,
        spec=spec,
        phases=phases,
        coverage=len(instructions) / num_total,
        num_samples=num_total,
    )


def fit_stream(stream: SampleStream, options: FitOptions = FitOptions()) -> List[CoreFit]:
    """Fit every core of a sample stream (sorted by core id)."""
    if not stream.cores:
        raise IngestError("sample stream has no cores")
    return [fit_core(core, stream.machine, options) for core in stream.cores]
