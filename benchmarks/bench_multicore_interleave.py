"""Benchmark guard: the chunked interleaving kernel versus the reference loop.

The detailed multi-core simulator interleaves per-core LLC traces into
one shared-LLC access stream.  The per-access reference kernel
(``heap``) walks that stream one element at a time in Python;
the default ``chunked`` kernel speculates whole windows — it proposes a
global order from estimated ready times, replays it against the batched
per-set LRU, and commits the prefix whose exact ready times confirm the
proposal, rolling the rest back.  This guard asserts that the two
kernels stay bit-identical (including on a duplicated-program mix,
where ready-time ties are the common case) *and* that the chunked
kernel keeps its speedup — so a silent fallback to the reference path
(or a regression that slows the kernel to parity) fails the build.

Timing methodology: the kernels are measured *interleaved* (each round
times every kernel back to back) and scored by per-kernel minimum
across rounds.  Host frequency drift on shared runners can swing
repeated runs of identical code by >10%; interleaving keeps both
kernels inside the same drift envelope so the ratio stays meaningful.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_multicore_interleave.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from repro.config import baseline_machine, scaled
from repro.profiling import ProfileStore
from repro.simulators import MultiCoreSimulator
from repro.workloads import small_suite

#: The timed workload: the four most heterogeneous benchmarks of the
#: small suite on the scaled 4-core Table-2 machine (LLC config #1).
MIX = ("gamess", "mcf", "soplex", "lbm")
SCALE = 16
#: Full mode: long traces so per-access Python costs dominate the
#: reference loop and the chunked walk amortises its numpy setup.
DEFAULT_INSTRUCTIONS = 800_000
#: Speedup floor at the default scale (measured 2.1-2.8x across idle
#: hosts; the margin absorbs machine noise while still catching a
#: fallback, which would measure ~1x).
DEFAULT_FLOOR = 1.7
#: Quick mode: shorter traces for CI smoke.  Fixed numpy overheads eat
#: into the ratio at this size, so the floor only needs to prove the
#: chunked path is live.
QUICK_INSTRUCTIONS = 200_000
QUICK_FLOOR = 1.2

#: The identity sweep also runs a duplicated-program mix: identical
#: gaps make exact ready-time ties the common case, exercising the
#: core-index tie-break on every wave of accesses.
DUP_MIX = ("gamess",) * 4


def _assert_identical(machine, traces):
    """Both kernels must produce frozen-dataclass-equal run results."""
    heap = MultiCoreSimulator(machine, kernel="heap").run(traces)
    chunked = MultiCoreSimulator(machine, kernel="chunked").run(traces)
    assert chunked == heap, "kernel 'chunked' diverged from the heap reference"


def measure_kernels(
    num_instructions: int = DEFAULT_INSTRUCTIONS, rounds: int = 3
) -> dict:
    """Time the kernels over one 4-core simulation; returns seconds + speedup.

    Interleaved best-of-``rounds`` per kernel (the minimum is the least
    noisy estimator of the true cost), with bit-identity asserted on
    both the timed mix and a duplicated-program mix first.
    """
    store = ProfileStore(
        num_instructions=num_instructions, interval_instructions=4_000, seed=0
    )
    suite = small_suite(6)
    machine = scaled(baseline_machine(num_cores=4, llc_config=1), SCALE)
    traces = [store.get_llc_trace(suite[name], machine) for name in MIX]
    dup_traces = [store.get_llc_trace(suite[name], machine) for name in DUP_MIX]

    _assert_identical(machine, traces)
    _assert_identical(machine, dup_traces)

    simulators = {
        kernel: MultiCoreSimulator(machine, kernel=kernel)
        for kernel in ("chunked", "heap")
    }
    timings = {kernel: [] for kernel in simulators}
    for _ in range(rounds):
        for kernel, simulator in simulators.items():
            start = time.perf_counter()
            simulator.run(traces)
            timings[kernel].append(time.perf_counter() - start)

    chunked_seconds = min(timings["chunked"])
    heap_seconds = min(timings["heap"])
    return {
        "num_instructions": num_instructions,
        "mix": list(MIX),
        "scale": SCALE,
        "rounds": rounds,
        "chunked_seconds": chunked_seconds,
        "heap_seconds": heap_seconds,
        "speedup": heap_seconds / chunked_seconds,
    }


def run_guard(quick: bool = False) -> dict:
    """Measure and enforce the speedup floor; returns the measurement."""
    result = measure_kernels(
        num_instructions=QUICK_INSTRUCTIONS if quick else DEFAULT_INSTRUCTIONS
    )
    floor = QUICK_FLOOR if quick else DEFAULT_FLOOR
    print(
        f"4-core interleaving of {'/'.join(result['mix'])} "
        f"({result['num_instructions']} instructions per trace): "
        f"chunked {result['chunked_seconds']:.3f}s, "
        f"heap {result['heap_seconds']:.3f}s "
        f"-> speedup {result['speedup']:.1f}x (floor {floor:.1f}x)"
    )
    assert result["speedup"] >= floor, (
        f"chunked interleaving kernel regressed (or silently fell back "
        f"to the reference path): {result['speedup']:.2f}x < required "
        f"{floor:.1f}x"
    )
    return result


def test_multicore_interleave_guard():
    """Pytest entry point: full default-scale guard."""
    run_guard(quick=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short traces + relaxed floor (CI smoke: catches a fallback, "
        "tolerates shared-runner noise)",
    )
    args = parser.parse_args()
    result = run_guard(quick=args.quick)
    from perf_snapshot import round_floats, write_snapshot

    write_snapshot("multicore_interleave", round_floats(result), quick=args.quick)


if __name__ == "__main__":
    main()
