"""Benchmark guard: vectorized trace generation vs its per-access reference.

Trace generation feeds every profile of every (benchmark, machine)
pair, and ROADMAP named it the largest remaining per-access Python
cost.  ``TraceGenerator.generate`` draws reuse depths, access positions
and base-cycle gaps as whole numpy arrays and resolves LRU-stack depths
to addresses with a tight O(depth) move-to-front kernel;
``TraceGenerator.generate_reference``, the test witness, walks every
access through the original MRU-first list (an O(footprint) memmove
per access).  This guard asserts, on the default experiment trace
scale, that the two stay bit-identical *and* that the vectorized path
keeps its speedup — so a regression that slows it to parity fails the
build.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_trace_generation.py [--quick]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.workloads import spec_cpu2006_like_suite
from repro.workloads.generator import TraceGenerator

#: Heterogeneous slice of the suite: small-footprint LLC-sensitive
#: (gamess), cache-friendly (hmmer), mid-size (soplex), capacity-bound
#: with working-set wrap-around (mcf) and huge-footprint streaming
#: (libquantum) behaviour all exercise different resolution paths.
BENCHMARKS = ("gamess", "hmmer", "soplex", "mcf", "libquantum")

#: Default experiment trace scale (matches ExperimentConfig).
DEFAULT_INSTRUCTIONS = 200_000
#: Speedup floor at the default scale (measured ~8-10x; the margin
#: absorbs machine noise while still catching a regression).
DEFAULT_FLOOR = 5.0
#: Quick mode: small traces for CI smoke; at this size fixed overheads
#: eat into the ratio, so the floor only needs to prove the vectorized
#: path is live (per-access speed would measure ~1x).
QUICK_INSTRUCTIONS = 50_000
QUICK_FLOOR = 2.0


def _assert_identical(vectorized, reference):
    assert np.array_equal(vectorized.access_insn, reference.access_insn)
    assert np.array_equal(vectorized.access_line, reference.access_line)
    assert np.array_equal(vectorized.base_cycle_gap, reference.base_cycle_gap)
    assert vectorized.access_line.dtype == reference.access_line.dtype
    assert vectorized.base_cycle_gap.dtype == reference.base_cycle_gap.dtype
    assert vectorized.tail_base_cycles == reference.tail_base_cycles


def measure_kernels(num_instructions: int = DEFAULT_INSTRUCTIONS, rounds: int = 3) -> dict:
    """Time both generators over the benchmark slice; returns seconds + speedup.

    Uses best-of-``rounds`` per generator (standard practice for benchmark
    guards: the minimum is the least noisy estimator of the true cost)
    and asserts bit-identical traces along the way.
    """
    suite = spec_cpu2006_like_suite()
    generator = TraceGenerator(num_instructions=num_instructions, seed=0)
    specs = [suite[name] for name in BENCHMARKS]
    generator.generate(specs[0])  # warm-up (imports, allocator)

    def best_of(generate) -> float:
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            for spec in specs:
                generate(spec)
            timings.append(time.perf_counter() - start)
        return min(timings)

    for spec in specs:
        _assert_identical(generator.generate(spec), generator.generate_reference(spec))

    vectorized_seconds = best_of(generator.generate)
    reference_seconds = best_of(generator.generate_reference)
    return {
        "num_instructions": num_instructions,
        "vectorized_seconds": vectorized_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / vectorized_seconds,
    }


def run_guard(quick: bool = False) -> dict:
    """Measure and enforce the speedup floor; returns the measurement."""
    num_instructions = QUICK_INSTRUCTIONS if quick else DEFAULT_INSTRUCTIONS
    floor = QUICK_FLOOR if quick else DEFAULT_FLOOR
    result = measure_kernels(num_instructions=num_instructions)
    print(
        f"trace generation of {len(BENCHMARKS)} benchmarks x "
        f"{result['num_instructions']} instructions: "
        f"vectorized {result['vectorized_seconds']:.3f}s, "
        f"reference {result['reference_seconds']:.3f}s "
        f"-> speedup {result['speedup']:.1f}x (floor {floor:.1f}x)"
    )
    assert result["speedup"] >= floor, (
        f"vectorized trace generation regressed toward the per-access "
        f"reference: {result['speedup']:.2f}x < required {floor:.1f}x"
    )
    return result


def test_trace_generation_guard():
    """Pytest entry point: full default-scale guard."""
    run_guard(quick=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small traces + relaxed floor (CI smoke: catches a collapse to "
        "parity, tolerates shared-runner noise)",
    )
    args = parser.parse_args()
    result = run_guard(quick=args.quick)
    from perf_snapshot import round_floats, write_snapshot

    write_snapshot("trace_generation", round_floats(result), quick=args.quick)


if __name__ == "__main__":
    main()
