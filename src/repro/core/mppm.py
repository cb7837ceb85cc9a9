"""The Multi-Program Performance Model (Figure 2 of the paper).

The model starts from every program's single-core behaviour and
iteratively converges on the performance entanglement between
co-executing programs:

1. Initialise every program's slowdown ``R_p = 1`` and instruction
   pointer ``I_p = 0``.
2. Find the slowest program over the next ``L`` instructions: the one
   with the largest ``C_p = CPI_SC,p * R_p * L``; call that cycle count
   ``C``.
3. Every program executes ``N_p = C / (CPI_SC,p * R_p)`` instructions
   during those ``C`` cycles.
4. Aggregate each program's per-interval stack-distance counters over
   its next ``N_p`` instructions and feed them to the cache-contention
   model, which returns the additional conflict misses due to sharing.
5. Convert the extra misses to lost cycles using the program's average
   LLC-miss penalty over the window
   (``CPI_mem,p * N_p / #LLC misses``).
6. Update the slowdown with an exponential moving average:
   ``R_p = f * R_p + (1 - f) * (1 + miss_cycles_p / C)``.
7. Advance ``I_p`` by ``N_p`` and repeat until the slowest program has
   executed ``target_passes`` times its trace (the paper uses 5 passes
   of 1B-instruction traces with ``L`` = 200M instructions).
8. Report ``CPI_MC,p = CPI_SC,p * R_p``.

The defaults reproduce the paper's parameters at our trace scale:
``L`` is one fifth of the trace and the stop criterion is five full
passes of the slowest program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.config.machine import MachineConfig
from repro.contention import FOAModel
from repro.contention.base import ContentionModel, ProgramCacheDemand
from repro.core.batched import solve_batch
from repro.core.result import IterationRecord, MixPrediction, ProgramPrediction
from repro.profiling.profile import SingleCoreProfile
from repro.workloads.mixes import WorkloadMix


class MPPMError(ValueError):
    """Raised for invalid model configurations or inputs."""


#: The available fixed-point solvers.  ``"batched"`` (the default) runs
#: the mix-major numpy kernel in :mod:`repro.core.batched`; it solves a
#: whole batch of mixes in one array pass and a single mix as a batch of
#: one.  ``"reference"`` is the original per-mix Python loop, kept as
#: executable ground truth.  The two produce bit-identical predictions
#: by construction, so the choice is pure performance.
MPPM_KERNELS: Tuple[str, ...] = ("batched", "reference")


def solver_values(machine: MachineConfig) -> Tuple[int, int]:
    """All the batched kernel reads of a machine: LLC associativity, memory latency."""
    return machine.llc.associativity, machine.memory.latency


@dataclass(frozen=True)
class MPPMConfig:
    """Tunable parameters of the iterative model.

    Parameters
    ----------
    chunk_instructions:
        The paper's ``L``: the number of instructions the slowest
        program executes per iteration (200M for 1B traces).  When
        ``None`` it defaults to one fifth of the (shortest) trace,
        preserving the paper's L/trace ratio at any scale.
    smoothing:
        The exponential-moving-average factor ``f`` in the slowdown
        update.  ``0`` means "use only the current iteration's
        estimate"; values close to one change the slowdown slowly.
        The paper reports that smoothing matters for programs with
        strong phase behaviour but does not publish the value; 0.5 is
        the package default and the ablation benchmark sweeps it.
    target_passes:
        Stop once the slowest program has executed this many times its
        trace length (the paper uses 5).
    max_iterations:
        Hard safety limit on the number of iterations.
    store_history:
        Keep a per-iteration record of slowdowns (useful for
        convergence tests and debugging; off by default).
    use_windowed_cpi:
        Model variant for ablations: use the CPI of the program's
        current profile window instead of its whole-trace CPI when
        computing progress, which tracks phases more aggressively.
    literal_figure2_update:
        The paper's Figure 2 writes the per-iteration slowdown estimate
        as ``1 + miss_cycles_p / C`` where ``C`` is the window length
        in *multi-core* cycles, i.e. it already contains the slowdown.
        Taken literally, the fixed point of that update satisfies
        ``R (R - 1) = miss_cycles / isolated_cycles`` and therefore
        under-estimates large slowdowns.  The default normalises the
        lost cycles by the program's *isolated* cycles over its window
        (``1 + miss_cycles_p / (CPI_SC,p * N_p)``), which converges to
        the self-consistent entanglement fixed point; set this flag to
        reproduce the literal formula (the two are indistinguishable
        for mild slowdowns).
    """

    chunk_instructions: Optional[int] = None
    smoothing: float = 0.5
    target_passes: float = 5.0
    max_iterations: int = 10_000
    store_history: bool = False
    use_windowed_cpi: bool = False
    literal_figure2_update: bool = False

    def __post_init__(self) -> None:
        if self.chunk_instructions is not None and self.chunk_instructions <= 0:
            raise MPPMError("chunk_instructions must be positive (or None for the default)")
        if not 0.0 <= self.smoothing < 1.0:
            raise MPPMError(f"smoothing must be in [0, 1), got {self.smoothing}")
        if self.target_passes <= 0:
            raise MPPMError(f"target_passes must be positive, got {self.target_passes}")
        if self.max_iterations <= 0:
            raise MPPMError("max_iterations must be positive")


@dataclass
class _ProgramState:
    """Mutable per-program state of the iterative process."""

    label: str
    core: int
    profile: SingleCoreProfile
    slowdown: float = 1.0
    position: float = 0.0
    executed: float = 0.0

    @property
    def single_core_cpi(self) -> float:
        return self.profile.cpi

    @property
    def passes(self) -> float:
        return self.executed / self.profile.num_instructions


class MPPM:
    """The Multi-Program Performance Model.

    Parameters
    ----------
    machine:
        The multi-core machine being modelled; only its shared LLC
        configuration is consulted (the core behaviour is already baked
        into the single-core profiles, which must have been collected
        on the same machine).
    contention_model:
        The cache-contention model; FOA by default, as in the paper.
    config:
        Iteration parameters (see :class:`MPPMConfig`).
    kernel:
        Solver kernel, one of :data:`MPPM_KERNELS`.  Both
        kernels produce bit-identical predictions; ``"batched"`` is an
        order of magnitude faster on bulk sweeps.  Configurations with
        ``store_history=True`` always run the reference loop (history
        is per-iteration bookkeeping only the sequential kernel keeps).
    """

    def __init__(
        self,
        machine: MachineConfig,
        contention_model: Optional[ContentionModel] = None,
        config: Optional[MPPMConfig] = None,
        kernel: str = "batched",
    ) -> None:
        self.machine = machine
        self.contention_model = contention_model if contention_model is not None else FOAModel()
        self.config = config if config is not None else MPPMConfig()
        if kernel not in MPPM_KERNELS:
            raise MPPMError(f"unknown MPPM kernel {kernel!r}; choose from {MPPM_KERNELS}")
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def predict(self, profiles: Sequence[SingleCoreProfile]) -> MixPrediction:
        """Predict multi-core performance for one mix (one profile per core)."""
        return self.predict_batch([profiles])[0]

    def predict_batch(
        self,
        mixes: Sequence[Sequence[SingleCoreProfile]],
        predictor: Optional[str] = None,
        machines: Optional[Sequence[MachineConfig]] = None,
    ) -> List[MixPrediction]:
        """Predict every mix (one profile list per mix) in one call.

        ``machines[i]`` is mix ``i``'s machine (default: this model's):
        its profiles are checked against it and it names the prediction.
        The batched kernel reads only :func:`solver_values` of a machine,
        which must equal this model's, and solves the batch in one
        mix-major pass (:func:`repro.core.batched.solve_batch`); the
        reference kernel models each mix on its machine, one by one.
        Results are bit-identical either way, in input order, built with
        ``predictor`` as their spec.
        """
        batches = [list(profiles) for profiles in mixes]
        machines = machines or [self.machine] * len(batches)
        values = solver_values(self.machine)
        for profiles, machine in zip(batches, machines):
            if not profiles:
                raise MPPMError("at least one program profile is required")
            self._check_profiles(profiles, machine)
            if solver_values(machine) != values:
                raise MPPMError(f"{machine.name!r} differs in LLC associativity or memory latency")
        if self.kernel == "reference" or self.config.store_history:
            # Per-iteration history is sequential bookkeeping that only
            # the reference loop records.
            return [
                MPPM(machine, self.contention_model, self.config)._predict_reference(p, predictor)
                for p, machine in zip(batches, machines)
            ]
        names = [machine.name for machine in machines]
        return solve_batch(self.contention_model, self.config, batches, *values, names, predictor)

    def _predict_reference(
        self, profiles: Sequence[SingleCoreProfile], predictor: Optional[str]
    ) -> MixPrediction:
        """The original per-mix Python loop (ground truth for the batched kernel)."""
        states = [
            _ProgramState(
                label=self._label(profile.benchmark, core, profiles),
                core=core,
                profile=profile,
            )
            for core, profile in enumerate(profiles)
        ]

        chunk = self.config.chunk_instructions
        if chunk is None:
            chunk = max(1, min(state.profile.num_instructions for state in states) // 5)

        history: List[IterationRecord] = []
        iterations = 0
        converged = False

        while iterations < self.config.max_iterations:
            iterations += 1
            window_cycles = self._iterate(states, chunk)
            if self.config.store_history:
                history.append(
                    IterationRecord(
                        iteration=iterations,
                        window_cycles=window_cycles,
                        slowdowns=tuple(state.slowdown for state in states),
                        instructions_executed=tuple(state.executed for state in states),
                    )
                )
            # Stop once the slowest program (the one that advanced the
            # least, relative to its trace) has executed target_passes
            # times its trace.
            if min(state.passes for state in states) >= self.config.target_passes:
                converged = True
                break

        programs = tuple(
            ProgramPrediction(
                name=state.profile.benchmark,
                core=state.core,
                single_core_cpi=state.single_core_cpi,
                predicted_cpi=state.single_core_cpi * state.slowdown,
            )
            for state in states
        )
        return MixPrediction(
            machine_name=self.machine.name,
            programs=programs,
            iterations=iterations,
            converged=converged,
            history=tuple(history),
            predictor=predictor,
            kernel="reference",
        )

    def predict_mix(
        self, mix: WorkloadMix, profiles: Mapping[str, SingleCoreProfile]
    ) -> MixPrediction:
        """Predict performance for a :class:`WorkloadMix` given a profile library."""
        return self.predict(self._mix_profiles(mix, profiles))

    @staticmethod
    def _mix_profiles(
        mix: WorkloadMix, profiles: Mapping[str, SingleCoreProfile]
    ) -> List[SingleCoreProfile]:
        missing = [name for name in mix.programs if name not in profiles]
        if missing:
            raise MPPMError(f"no profiles for mix programs: {missing}")
        return [profiles[name] for name in mix.programs]

    # ------------------------------------------------------------------
    # One iteration of Figure 2
    # ------------------------------------------------------------------

    def _iterate(self, states: List[_ProgramState], chunk: int) -> float:
        config = self.config

        # Step 2: the slowest program's cycle budget for this iteration.
        cycles_per_program = [
            self._current_cpi(state) * state.slowdown * chunk for state in states
        ]
        window_cycles = max(cycles_per_program)

        # Step 3: instruction progress of every program in that budget.
        progress = [
            window_cycles / (self._current_cpi(state) * state.slowdown) for state in states
        ]

        # Step 4: aggregate SDCs over each program's window and run the
        # cache-contention model.
        windows = [
            state.profile.window(state.position, instructions)
            for state, instructions in zip(states, progress)
        ]
        demands = [
            ProgramCacheDemand(name=state.label, sdc=window.sdc, instructions=window.instructions)
            for state, window in zip(states, windows)
        ]
        estimates = self.contention_model.estimate(demands, self.machine.llc)

        # Steps 5 and 6: extra conflict misses -> lost cycles -> slowdown EMA.
        for state, window, estimate, instructions in zip(states, windows, estimates, progress):
            penalty = window.average_miss_penalty
            if penalty <= 0:
                penalty = self._fallback_miss_penalty(state)
            miss_cycles = estimate.extra_conflict_misses * penalty
            if config.literal_figure2_update:
                # The formula exactly as printed in Figure 2.
                current_slowdown = 1.0 + miss_cycles / window_cycles
            else:
                # Normalise by the program's isolated cycles over its own
                # window, which makes the fixed point self-consistent (see
                # MPPMConfig.literal_figure2_update).
                isolated_cycles = self._current_cpi(state) * instructions
                current_slowdown = 1.0 + miss_cycles / isolated_cycles
            state.slowdown = (
                config.smoothing * state.slowdown + (1.0 - config.smoothing) * current_slowdown
            )

        # Step 7: advance the instruction pointers.
        for state, instructions in zip(states, progress):
            state.position += instructions
            state.executed += instructions

        return window_cycles

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _current_cpi(self, state: _ProgramState) -> float:
        """Single-core CPI used for progress computation."""
        if not self.config.use_windowed_cpi:
            return state.profile.cpi
        # Ablation variant: the CPI of the upcoming profile interval.
        interval_length = state.profile.interval_instructions
        window = state.profile.window(state.position, interval_length)
        return window.cpi if window.cpi > 0 else state.profile.cpi

    def _fallback_miss_penalty(self, state: _ProgramState) -> float:
        """Average miss penalty when the current window has no isolated misses."""
        total_misses = state.profile.total_llc_misses
        if total_misses > 0:
            return (
                state.profile.memory_cpi * state.profile.num_instructions / total_misses
            )
        return float(self.machine.memory.latency)

    @staticmethod
    def _label(benchmark: str, core: int, profiles: Sequence[SingleCoreProfile]) -> str:
        """Unique per-core label (mixes may contain several copies of a benchmark)."""
        duplicates = sum(1 for profile in profiles if profile.benchmark == benchmark)
        return f"{benchmark}#{core}" if duplicates > 1 else benchmark

    @staticmethod
    def _check_profiles(profiles: Sequence[SingleCoreProfile], machine: MachineConfig) -> None:
        expected_key = machine.profile_key()
        llc_ways = machine.llc.associativity
        for profile in profiles:
            if profile.llc_associativity != llc_ways:
                raise MPPMError(
                    f"{profile.benchmark}: profile was collected for an "
                    f"{profile.llc_associativity}-way LLC but the machine has "
                    f"{llc_ways} ways"
                )
            if profile.machine_key != expected_key:
                raise MPPMError(
                    f"{profile.benchmark}: profile was collected on a different machine "
                    f"({profile.machine_name!r}) than the one being modelled "
                    f"({machine.name!r}); re-profile or derive a matching profile"
                )
