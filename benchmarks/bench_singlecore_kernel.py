"""Benchmark guard: the vectorized replay versus its per-access reference.

The single-core profiler is the repo's hottest path: every profile of
every (benchmark, machine) pair replays a full memory trace.
``SingleCoreSimulator.run`` resolves all cache levels with batched
per-set stack distances (a handful of array passes);
``SingleCoreSimulator.run_reference``, the test witness, walks every
access through stateful cache objects.  This guard asserts, on the
default experiment trace scale, that the two stay bit-identical *and*
that the vectorized replay keeps its speedup — so a regression that
slows it to parity fails the build.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_singlecore_kernel.py [--quick]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.config import baseline_machine, scaled
from repro.simulators.single_core import SingleCoreSimulator
from repro.workloads import spec_cpu2006_like_suite
from repro.workloads.generator import TraceGenerator

#: Heterogeneous slice of the suite: cache-friendly, LLC-sensitive and
#: streaming behaviour all exercise different kernel paths.
BENCHMARKS = ("gamess", "hmmer", "soplex", "mcf", "libquantum")

#: Default experiment trace scale (matches ExperimentConfig).
DEFAULT_INSTRUCTIONS = 200_000
#: Speedup floor at the default scale (measured ~6-6.5x; the margin
#: absorbs machine noise while still catching a regression).
DEFAULT_FLOOR = 5.0
#: Quick mode: small traces for CI smoke; at this size numpy fixed
#: overheads eat into the ratio, so the floor only needs to prove the
#: vectorized path is live (per-access speed would measure ~1x).
QUICK_INSTRUCTIONS = 50_000
QUICK_FLOOR = 2.0


def _assert_identical(vectorized, reference):
    assert len(vectorized.intervals) == len(reference.intervals)
    for x, y in zip(vectorized.intervals, reference.intervals):
        assert x.cycles == y.cycles and x.memory_cycles == y.memory_cycles
        assert (x.llc_accesses, x.llc_hits, x.llc_misses) == (
            y.llc_accesses,
            y.llc_hits,
            y.llc_misses,
        )
        assert np.array_equal(x.sdc.counts, y.sdc.counts)
    assert vectorized.cycles == reference.cycles
    assert np.array_equal(
        vectorized.llc_trace.upstream_cycle_gap, reference.llc_trace.upstream_cycle_gap
    )
    assert np.array_equal(vectorized.llc_trace.line, reference.llc_trace.line)
    assert vectorized.llc_trace.tail_cycles == reference.llc_trace.tail_cycles


def measure_kernels(num_instructions: int = DEFAULT_INSTRUCTIONS, rounds: int = 3) -> dict:
    """Time both replays over the benchmark slice; returns seconds + speedup.

    Uses best-of-``rounds`` per replay (standard practice for benchmark
    guards: the minimum is the least noisy estimator of the true cost)
    and asserts bit-identical results along the way.
    """
    suite = spec_cpu2006_like_suite()
    generator = TraceGenerator(num_instructions=num_instructions, seed=0)
    machine = scaled(baseline_machine(num_cores=4, llc_config=1), 16)
    simulator = SingleCoreSimulator(machine, interval_instructions=4_000)
    traces = [generator.generate(suite[name]) for name in BENCHMARKS]
    simulator.run(traces[0])  # warm-up (imports, allocator)

    def best_of(run) -> float:
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            for trace in traces:
                run(trace)
            timings.append(time.perf_counter() - start)
        return min(timings)

    for trace in traces:
        _assert_identical(simulator.run(trace), simulator.run_reference(trace))

    vectorized_seconds = best_of(simulator.run)
    reference_seconds = best_of(simulator.run_reference)
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
        f"single-core replay of {len(BENCHMARKS)} benchmarks x "
        f"{result['num_instructions']} instructions: "
        f"vectorized {result['vectorized_seconds']:.3f}s, "
        f"reference {result['reference_seconds']:.3f}s "
        f"-> speedup {result['speedup']:.1f}x (floor {floor:.1f}x)"
    )
    assert result["speedup"] >= floor, (
        f"vectorized replay regressed toward the per-access reference: "
        f"{result['speedup']:.2f}x < required {floor:.1f}x"
    )
    return result


def test_vectorized_kernel_guard():
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

    write_snapshot("singlecore_kernel", round_floats(result), quick=args.quick)


if __name__ == "__main__":
    main()
