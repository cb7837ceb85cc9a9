"""Deterministic synthetic trace generation.

The generator implements an *LRU-stack model*: the benchmark maintains
a private stack of the cache lines it has touched, most recently used
first.  Each memory access either reuses the line at a randomly drawn
stack depth (drawn from the benchmark's :class:`ReuseProfile`) or
touches a brand-new line.  Once the benchmark's working set is
exhausted, "new" accesses cycle back over the least-recently-used lines,
which turns streaming behaviour into capacity behaviour.

Because the reuse-depth distribution directly controls the trace's
stack-distance profile, this generator lets the suite dial in exactly
the cache behaviours the paper relies on: cache-friendly compute
programs, LLC-sensitive programs (the ``gamess`` role), and streaming
memory-intensive programs — including time-varying phases.

Everything is driven by :class:`numpy.random.Generator` seeded from the
benchmark's ``seed``, so traces are bit-for-bit reproducible.

:meth:`TraceGenerator.generate` is vectorized: reuse depths, access
positions and base-cycle gaps are drawn and resolved as whole numpy
arrays; the only irreducibly sequential step, resolving LRU-stack
depths to line addresses (the inverse of the stack-distance transform,
i.e. a move-to-front decode), runs as a tight bottom-anchored list
kernel whose per-access cost is O(reuse depth) instead of a
front-inserting loop's O(footprint) memmove plus per-access numpy
scalar arithmetic.

:meth:`TraceGenerator.generate_reference` is the original per-access
loop over the same phase plans and random draws, kept as the test
witness: the two are **bit-identical**, asserted by the equivalence
suite and guarded by ``benchmarks/bench_trace_generation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.workloads.benchmark import BenchmarkSpec, WorkloadError
from repro.workloads.trace import MemoryTrace


#: Large odd multiplier used to give every benchmark a disjoint,
#: set-index-scrambled address space in the shared cache.
_ADDRESS_SPACE_STRIDE = 1 << 40


def _name_digest(name: str) -> int:
    """A deterministic 32-bit digest of a benchmark name.

    Python's built-in ``hash`` is randomised per process, which would
    make traces differ from run to run; this digest is stable.
    """
    digest = 0
    for char in name:
        digest = (digest * 131 + ord(char)) & 0xFFFFFFFF
    return digest


def _benchmark_address_base(name: str) -> int:
    """A stable per-benchmark base address (disjoint across benchmarks)."""
    # Keep the base well inside the int64 range used by the trace arrays.
    return (_name_digest(name) % 100_003 + 1) * _ADDRESS_SPACE_STRIDE


@dataclass(frozen=True)
class _PhasePlan:
    """Resolved parameters of one phase for a concrete trace length."""

    start_insn: int
    end_insn: int
    num_accesses: int
    base_cpi: float
    bucket_bounds: tuple
    bucket_probs: np.ndarray
    new_prob: float

    @property
    def num_instructions(self) -> int:
        return self.end_insn - self.start_insn


class TraceGenerator:
    """Generates :class:`MemoryTrace` objects from benchmark specs.

    Parameters
    ----------
    num_instructions:
        Trace length in dynamic instructions.  The default of 200,000
        stands in for the paper's 1B-instruction SimPoints (a 1:5000
        scale; :mod:`repro.config.scaling` shrinks the caches to match).
    seed:
        Global seed combined with each benchmark's own seed, so that a
        whole suite can be re-generated under a different seed for
        sensitivity studies.
    """

    def __init__(self, num_instructions: int = 200_000, seed: int = 0) -> None:
        if num_instructions <= 0:
            raise WorkloadError("num_instructions must be positive")
        self.num_instructions = num_instructions
        self.seed = seed

    def generate(self, spec: BenchmarkSpec) -> MemoryTrace:
        """Generate the trace for one benchmark."""
        return self._assemble_vectorized(spec, self._phase_data(spec))

    def generate_reference(self, spec: BenchmarkSpec) -> MemoryTrace:
        """:meth:`generate` through the per-access reference loop.

        The test witness for the vectorized path: same phase plans, same
        random draws, bit-identical trace.
        """
        return self._assemble_reference(spec, self._phase_data(spec))

    def _phase_data(
        self, spec: BenchmarkSpec
    ) -> List[Tuple[_PhasePlan, np.ndarray, np.ndarray]]:
        rng = np.random.default_rng((self.seed, spec.seed, _name_digest(spec.name)))
        plans = self._plan_phases(spec)
        # Draw every phase's access positions and reuse depths up front,
        # in phase order — both assembly paths consume the exact same
        # random stream, so the drawn arrays (and thus the traces) are
        # shared.
        phase_data: List[Tuple[_PhasePlan, np.ndarray, np.ndarray]] = [
            (plan, self._access_positions(plan), self._draw_depths(plan, rng))
            for plan in plans
            if plan.num_accesses > 0
        ]
        if not phase_data:
            raise WorkloadError(f"{spec.name}: generated trace contains no memory accesses")
        return phase_data

    # ------------------------------------------------------------------
    # Reference: the original per-access loop (test witness)
    # ------------------------------------------------------------------

    def _assemble_reference(self, spec: BenchmarkSpec, phase_data) -> MemoryTrace:
        address_base = _benchmark_address_base(spec.name)

        access_insn_parts = []
        access_line_parts = []
        gap_parts = []

        # The LRU stack of touched lines (most recent first) persists
        # across phases, as it would in a real program.
        stack: list = []
        next_new_line = 0
        last_insn = -1
        last_phase_cpi = spec.base_cpi

        for plan, insn_idx, depths in phase_data:
            lines = np.empty(plan.num_accesses, dtype=np.int64)

            for i, depth in enumerate(depths):
                if depth < 0 or depth > len(stack):
                    # Brand-new line (or a reuse deeper than the current
                    # footprint, which degenerates to a new line).
                    if next_new_line < spec.working_set_lines:
                        line = next_new_line
                        next_new_line += 1
                        stack.insert(0, line)
                    else:
                        # Working set exhausted: cycle over the LRU end.
                        line = stack[-1]
                        del stack[-1]
                        stack.insert(0, line)
                else:
                    # Reuse the line at 1-based stack depth ``depth``.
                    line = stack[depth - 1]
                    del stack[depth - 1]
                    stack.insert(0, line)
                lines[i] = line

            gaps = np.empty(plan.num_accesses, dtype=np.float64)
            prev = last_insn
            for i, insn in enumerate(insn_idx):
                gaps[i] = (insn - prev) * plan.base_cpi
                prev = insn
            last_insn = int(insn_idx[-1])
            last_phase_cpi = plan.base_cpi

            access_insn_parts.append(insn_idx)
            access_line_parts.append(lines + address_base)
            gap_parts.append(gaps)

        access_insn = np.concatenate(access_insn_parts)
        access_line = np.concatenate(access_line_parts)
        base_cycle_gap = np.concatenate(gap_parts)
        tail = (self.num_instructions - 1 - last_insn) * last_phase_cpi

        return MemoryTrace(
            spec=spec,
            num_instructions=self.num_instructions,
            access_insn=access_insn,
            access_line=access_line,
            base_cycle_gap=base_cycle_gap,
            tail_base_cycles=float(max(tail, 0.0)),
        )

    # ------------------------------------------------------------------
    # Vectorized assembly (what generate() runs)
    # ------------------------------------------------------------------

    def _assemble_vectorized(self, spec: BenchmarkSpec, phase_data) -> MemoryTrace:
        address_base = _benchmark_address_base(spec.name)

        gap_parts = []
        last_insn = -1
        for plan, insn_idx, _ in phase_data:
            # Gaps are a pure array expression: (insn - previous insn)
            # times the phase CPI, with the previous phase's final
            # access (or -1) in front.  int64 differences converted to
            # float64 and multiplied once match the reference's scalar
            # arithmetic bit-for-bit.
            gaps = np.diff(insn_idx, prepend=last_insn) * plan.base_cpi
            gap_parts.append(gaps)
            last_insn = int(insn_idx[-1])
        last_phase_cpi = phase_data[-1][0].base_cpi

        depths_all = np.concatenate([depths for _, _, depths in phase_data])
        lines = _resolve_depths_to_lines(depths_all, spec.working_set_lines)

        access_insn = np.concatenate([insn_idx for _, insn_idx, _ in phase_data])
        base_cycle_gap = np.concatenate(gap_parts)
        tail = (self.num_instructions - 1 - last_insn) * last_phase_cpi

        return MemoryTrace(
            spec=spec,
            num_instructions=self.num_instructions,
            access_insn=access_insn,
            access_line=lines + address_base,
            base_cycle_gap=base_cycle_gap,
            tail_base_cycles=float(max(tail, 0.0)),
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _plan_phases(self, spec: BenchmarkSpec) -> list:
        """Resolve each phase of ``spec`` against the concrete trace length."""
        plans = []
        boundaries = spec.phase_boundaries(self.num_instructions)
        start = 0
        for phase, end in zip(spec.phases, boundaries):
            phase_insns = end - start
            if phase_insns <= 0:
                start = end
                continue
            mem_fraction = min(0.95, spec.mem_ref_fraction * phase.mem_fraction_multiplier)
            num_accesses = max(1, int(round(phase_insns * mem_fraction)))
            reuse = spec.reuse.scaled(
                depth_scale=phase.reuse_depth_multiplier,
                new_scale=phase.new_line_multiplier,
            )
            triples = reuse.probabilities()
            bucket_bounds = tuple((low, high) for low, high, _ in triples)
            bucket_probs = np.array([probability for _, _, probability in triples], dtype=np.float64)
            plans.append(
                _PhasePlan(
                    start_insn=start,
                    end_insn=end,
                    num_accesses=num_accesses,
                    base_cpi=spec.base_cpi * phase.cpi_multiplier,
                    bucket_bounds=bucket_bounds,
                    bucket_probs=bucket_probs,
                    new_prob=reuse.new_probability,
                )
            )
            start = end
        return plans

    @staticmethod
    def _access_positions(plan: _PhasePlan) -> np.ndarray:
        """Evenly spread access instruction indices across the phase."""
        positions = plan.start_insn + np.floor(
            (np.arange(plan.num_accesses) + 0.5) * plan.num_instructions / plan.num_accesses
        ).astype(np.int64)
        return np.minimum(positions, plan.end_insn - 1)

    @staticmethod
    def _draw_depths(plan: _PhasePlan, rng: np.random.Generator) -> np.ndarray:
        """Draw a reuse depth per access; -1 encodes a brand-new line."""
        n = plan.num_accesses
        depths = np.full(n, -1, dtype=np.int64)
        if len(plan.bucket_probs) == 0:
            return depths
        reuse_prob_total = float(plan.bucket_probs.sum())
        uniform = rng.random(n)
        is_reuse = uniform < reuse_prob_total
        num_reuse = int(is_reuse.sum())
        if num_reuse == 0:
            return depths
        # Choose a bucket per reusing access, then a uniform depth inside it.
        bucket_choice = rng.choice(
            len(plan.bucket_probs), size=num_reuse, p=plan.bucket_probs / reuse_prob_total
        )
        lows = np.array([low for low, _ in plan.bucket_bounds], dtype=np.int64)
        highs = np.array([high for _, high in plan.bucket_bounds], dtype=np.int64)
        chosen_low = lows[bucket_choice]
        chosen_high = highs[bucket_choice]
        reuse_depths = chosen_low + 1 + np.floor(
            rng.random(num_reuse) * (chosen_high - chosen_low)
        ).astype(np.int64)
        depths[is_reuse] = reuse_depths
        return depths


def _resolve_depths_to_lines(depths: np.ndarray, working_set_lines: int) -> np.ndarray:
    """Resolve LRU-stack reuse depths to line ids (move-to-front decode).

    This is the inverse of the stack-distance transform and — unlike
    the draws, positions and gaps around it — has an irreducible
    sequential core: the line selected at depth ``d`` depends on every
    preceding move-to-front.  The kernel keeps that core as small as
    possible:

    * the stack is stored bottom-first, so pushing the new MRU is an
      O(1) ``append`` and reusing depth ``d`` removes ``stack[-d]`` —
      an O(d) tail memmove.  The reference loop instead pays an
      O(footprint) front-insertion memmove on *every* access, which is
      quadratic for streaming working sets;
    * a reuse at depth 1 touches the line that is already on top, so it
      reads ``stack[-1]`` and mutates nothing;
    * depths arrive as one whole-trace int64 array (phase structure
      already folded in) and are converted to plain ints in a single C
      pass, eliminating the per-access numpy scalar arithmetic that
      dominates the reference loop on small working sets.

    Semantics are exactly the reference loop's: a negative depth or a
    depth beyond the current footprint is a brand-new line until the
    working set is exhausted, after which it recycles the LRU line.
    """
    out: list = []
    push = out.append
    stack: list = []  # bottom-first: stack[-1] is the MRU line
    append = stack.append
    born = 0  # lines created so far == current stack size
    for d in depths.tolist():
        if 1 <= d <= born:
            if d == 1:
                push(stack[-1])
                continue
            line = stack[-d]
            del stack[-d]
        elif born < working_set_lines:
            line = born
            born += 1
        else:
            # Working set exhausted: cycle over the LRU end.
            line = stack[0]
            del stack[0]
        append(line)
        push(line)
    return np.array(out, dtype=np.int64)
