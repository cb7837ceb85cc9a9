"""The batched MPPM kernel: one mix-major numpy fixed point over many mixes.

The reference kernel in :mod:`repro.core.mppm` runs one Python loop per
mix; at ``workload_space`` scale that is thousands of interpreter
round-trips over the same handful of float operations.  This module
solves the Figure-2 fixed point for an entire batch of mixes
simultaneously: the per-program state lives in mix-major arrays
(``slowdown[m, c]``, ``position[m, c]``) and one
vectorized iteration step

* picks each mix's slowest program (a row-wise max),
* computes every program's instruction budget for the iteration,
* aggregates each program's per-interval stack-distance counters over
  its window through one prefix-sum
  :class:`~repro.profiling.profile.ProfileWindowTable` stacked over the
  batch's distinct profiles (built once per solve; its per-slot rows
  are gathered once per set of live mixes, so an iteration evaluates
  every window of all M·C programs with one stacked point lookup,
  however many distinct benchmarks the batch touches),
* applies the contention model's batched ``estimate_batch``, and
* performs the EMA slowdown update for all still-unconverged mixes.

All live mixes share one iteration count.  The state holds the live
mixes only: when some mixes retire, their results are written back and
the state is compacted, so an iteration never gathers or scatters rows.

Bit-identity with the reference loop is by construction, not by
accident: within each mix the float operations are the same ops in the
same order (the window table class is shared with the scalar
``SingleCoreProfile.window``, the batched contention models replicate
the scalar accumulation order, and numpy elementwise arithmetic is IEEE
double arithmetic), so the batched kernel's outputs match the reference
kernel's bit for bit.  The equivalence matrix in
``tests/test_core_mppm_batched.py`` and the CI guard
``benchmarks/bench_mppm_batch.py`` both assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.machine import MachineConfig
from repro.contention.base import ContentionModel
from repro.core.result import MixPrediction, ProgramPrediction
from repro.profiling.profile import ProfileWindowTable, SingleCoreProfile, WindowSlots

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mppm import MPPMConfig

#: Column indices of window rows (shared with the scalar window path).
_COL_INSTRUCTIONS = ProfileWindowTable.COL_INSTRUCTIONS
_COL_CYCLES = ProfileWindowTable.COL_CYCLES
_COL_MEMORY_CYCLES = ProfileWindowTable.COL_MEMORY_CYCLES
_COL_LLC_MISSES = ProfileWindowTable.COL_LLC_MISSES
_SDC_OFFSET = ProfileWindowTable.SDC_OFFSET


def solve_batch(
    machine: MachineConfig,
    contention_model: ContentionModel,
    config: "MPPMConfig",
    mixes: Sequence[Sequence[SingleCoreProfile]],
    predictor: Optional[str] = None,
    machine_names: Optional[Sequence[str]] = None,
) -> List[MixPrediction]:
    """Solve the MPPM fixed point for every mix in ``mixes`` at once.

    ``mixes`` holds one profile list per mix (one profile per core);
    mixes of different core counts are grouped and solved per uniform
    group.  Returns one :class:`MixPrediction` per input mix, in input
    order, tagged ``kernel="batched"`` and ``predictor``, and labelled
    with ``machine_names[i]`` (default: ``machine.name``).  Inputs are
    assumed validated (:meth:`repro.core.mppm.MPPM.predict_batch` checks
    profiles against the machine before calling in).
    """
    if machine_names is None:
        machine_names = [machine.name] * len(mixes)
    predictions: List[Optional[MixPrediction]] = [None] * len(mixes)
    groups: Dict[int, List[int]] = {}
    for index, profiles in enumerate(mixes):
        groups.setdefault(len(profiles), []).append(index)
    for _, indices in sorted(groups.items()):
        solved = _solve_uniform(
            machine,
            contention_model,
            config,
            [mixes[index] for index in indices],
            predictor,
            [machine_names[index] for index in indices],
        )
        for index, prediction in zip(indices, solved):
            predictions[index] = prediction
    return predictions


def _slot_row(profile: SingleCoreProfile, machine: MachineConfig) -> Tuple[float, int, int, float]:
    """A profile's CPI, trace length, interval length and fallback miss penalty.

    The fallback is the reference kernel's whole-trace average miss
    penalty (``MPPM._fallback_miss_penalty``) for windows without
    isolated misses; it is a constant per profile.
    """
    total_misses = profile.total_llc_misses
    if total_misses > 0:
        fallback = profile.memory_cpi * profile.num_instructions / total_misses
    else:
        fallback = float(machine.memory.latency)
    return profile.cpi, profile.num_instructions, profile.interval_instructions, fallback


def _windowed_cpi(
    slots: WindowSlots, positions: np.ndarray, interval_lengths: np.ndarray, base_cpi: np.ndarray
) -> np.ndarray:
    """The ``use_windowed_cpi`` ablation's per-interval CPI, batched."""
    windows = slots.windows(positions, interval_lengths)
    instructions = windows[..., _COL_INSTRUCTIONS]
    cycles = windows[..., _COL_CYCLES]
    nonzero = instructions != 0.0
    cpi = np.where(nonzero, cycles / np.where(nonzero, instructions, 1.0), 0.0)
    return np.where(cpi > 0.0, cpi, base_cpi)


def _solve_uniform(
    machine: MachineConfig,
    contention_model: ContentionModel,
    config: "MPPMConfig",
    mixes: Sequence[Sequence[SingleCoreProfile]],
    predictor: Optional[str],
    machine_names: Sequence[str],
) -> List[MixPrediction]:
    """Solve a batch of mixes that all have the same core count."""
    num_mixes = len(mixes)
    num_cores = len(mixes[0])

    # Unique profiles (the setup's stores hand out shared instances, so
    # identity dedup collapses a batch to its distinct benchmarks) and
    # the per-slot index into them.
    uniques: List[SingleCoreProfile] = []
    by_identity: Dict[int, int] = {}
    profile_ids = np.empty((num_mixes, num_cores), dtype=np.int64)
    for m, profiles in enumerate(mixes):
        for c, profile in enumerate(profiles):
            identity = id(profile)
            if identity not in by_identity:
                by_identity[identity] = len(uniques)
                uniques.append(profile)
            profile_ids[m, c] = by_identity[identity]

    table = ProfileWindowTable(uniques)
    # One row per unique profile (see _slot_row), gathered per slot.
    rows = np.array([_slot_row(profile, machine) for profile in uniques])
    base_cpi, trace_lengths, interval_lengths, fallback = rows.T.take(profile_ids, axis=1)
    # Each mix's chunk: the configured one, or a fifth of its shortest trace.
    chunks = [
        config.chunk_instructions
        if config.chunk_instructions is not None
        else max(1, min(profile.num_instructions for profile in profiles) // 5)
        for profiles in mixes
    ]
    chunk = np.repeat(np.array(chunks, dtype=np.float64)[:, None], num_cores, axis=1)

    # Row r of the live state belongs to mix live[r].
    live = np.arange(num_mixes)
    state = _LiveState(
        profile_ids=profile_ids,
        base_cpi=base_cpi,
        trace_lengths=trace_lengths,
        interval_lengths=interval_lengths,
        fallback_penalty=fallback,
        chunk=chunk,
        slowdown=np.ones((num_mixes, num_cores), dtype=np.float64),
        position=np.zeros((num_mixes, num_cores), dtype=np.float64),
    )
    slots = table.slots(profile_ids)
    # Each mix's results, written when it retires.
    slowdown = np.empty((num_mixes, num_cores), dtype=np.float64)
    iterations = np.empty(num_mixes, dtype=np.int64)
    converged = np.empty(num_mixes, dtype=bool)

    smoothing = config.smoothing
    complement = 1.0 - config.smoothing
    llc = machine.llc
    associativity = llc.associativity

    # Every live mix has run the same number of iterations.
    iteration = 0
    while True:
        # Step 2/3: the slowest program's cycle budget, then everyone's
        # instruction progress within it.
        current_cpi = state.base_cpi
        if config.use_windowed_cpi:
            current_cpi = _windowed_cpi(
                slots, state.position, state.interval_lengths, current_cpi
            )
        denominator = current_cpi * state.slowdown
        window_cycles = (denominator * state.chunk).max(axis=1, keepdims=True)
        progress = window_cycles / denominator

        # Step 4: window aggregation and the batched contention model.
        windows = slots.windows(state.position, progress)
        sdc_counts = windows[..., _SDC_OFFSET:]
        shared = contention_model.estimate_batch(
            sdc_counts, windows[..., _COL_INSTRUCTIONS], llc
        )
        extra_misses = np.maximum(0.0, shared - sdc_counts[..., associativity])

        # Step 5: extra conflict misses -> lost cycles (window-average
        # miss penalty, whole-trace fallback when it is not positive).
        window_misses = windows[..., _COL_LLC_MISSES]
        penalty = np.divide(
            windows[..., _COL_MEMORY_CYCLES],
            window_misses,
            out=state.fallback_penalty.copy(),
            where=window_misses > 0.0,
        )
        np.copyto(penalty, state.fallback_penalty, where=penalty <= 0.0)
        miss_cycles = extra_misses * penalty

        # Step 6: the EMA slowdown update.
        if config.literal_figure2_update:
            current_slowdown = 1.0 + miss_cycles / window_cycles
        else:
            isolated_cycles = current_cpi * progress
            current_slowdown = 1.0 + miss_cycles / isolated_cycles
        state.slowdown = smoothing * state.slowdown + complement * current_slowdown

        # Step 7: advance the instruction pointers (the reference loop's
        # position and executed count start at 0 and add the same
        # progress, so one array holds both); retire mixes whose slowest
        # program has executed target_passes traces (or all of them at
        # the iteration cap, exactly like the reference loop).
        state.position = state.position + progress
        iteration += 1
        # Each mix's least passes; fmax skips NaN like ``(least >= t).any()``.
        least = (state.position / state.trace_lengths).min(axis=1)
        capped = iteration >= config.max_iterations
        if not capped and not np.fmax.reduce(least) >= config.target_passes:
            continue
        done = least >= config.target_passes
        retire = np.ones_like(done) if capped else done
        retired = live[retire]
        slowdown[retired] = state.slowdown[retire]
        iterations[retired] = iteration
        converged[retired] = done[retire]
        keep = ~retire
        if not keep.any():
            break
        live = live[keep]
        state = state.compacted(keep)
        slots = table.slots(state.profile_ids)

    # Python floats for the result objects: the products are the same
    # IEEE multiplications as ``profile.cpi * float(slowdown[m, core])``.
    predicted_cpi = (base_cpi * slowdown).tolist()
    single_cpi = base_cpi.tolist()
    predictions: List[MixPrediction] = []
    for m, (profiles, name, count, done) in enumerate(
        zip(mixes, machine_names, iterations.tolist(), converged.tolist())
    ):
        programs = tuple(
            ProgramPrediction(
                name=profile.benchmark,
                core=core,
                single_core_cpi=single_cpi[m][core],
                predicted_cpi=predicted_cpi[m][core],
            )
            for core, profile in enumerate(profiles)
        )
        predictions.append(
            MixPrediction(
                machine_name=name,
                programs=programs,
                iterations=count,
                converged=done,
                predictor=predictor,
                kernel="batched",
            )
        )
    return predictions


@dataclass
class _LiveState:
    """Per-mix solver state, one row per live mix (``[mix, core]`` arrays)."""

    profile_ids: np.ndarray
    base_cpi: np.ndarray
    trace_lengths: np.ndarray
    interval_lengths: np.ndarray
    fallback_penalty: np.ndarray
    chunk: np.ndarray
    slowdown: np.ndarray
    position: np.ndarray

    def compacted(self, keep: np.ndarray) -> "_LiveState":
        """The rows of the mixes in ``keep`` (a boolean mask)."""
        return _LiveState(*(getattr(self, f.name)[keep] for f in fields(self)))
