"""Benchmark guard: the batched MPPM solver versus the per-mix reference loop.

Exploring the paper's workload space means solving the Figure-2 fixed
point for hundreds to thousands of mixes per sweep.  The default
``"batched"`` kernel solves a whole batch at once over mix-major numpy
state arrays (one vectorized iteration step, a convergence mask
retiring mixes in place); the ``"reference"`` kernel iterates each mix
in pure Python.  This guard asserts, at workload-space scale on the
default experiment configuration, that the two kernels stay
bit-identical for every ``mppm:*`` variant *and* that the batched
kernel keeps its speedup — so a silent fallback to the reference path
(or a regression that slows the kernel to parity) fails the build.

A second, many-profile case solves 300 mixes drawn from all 29
benchmarks on one more Table 2 LLC, with every mix checked against the
reference kernel.  Each iteration's window gather then spans 29
distinct profiles, so a per-profile loop creeping back into the solver
shows up in its speedup.

A third case solves 100 mixes one at a time, each as a batch of one
(how ``repro serve`` meets most requests), against the reference loop
on the same mixes.  A batch of one takes the batched kernel's one-mix
path, which runs the fixed point program by program on Python floats;
its floor asserts that a one-mix solve stays at least 2.5x faster than
the reference (fourteen ``--quick`` runs measured 3.0-3.4x, where the
mix-major path that batches of two or more take measured 2.0-2.5x; the
ratio moves with the host's load, so the floor keeps a margin below the
slowest run).

A design-space case solves 125 mixes on each of the six Table 2 LLCs
under ``mppm:foa``, ``mppm:sdc`` and ``mppm:prob`` through
``MPPMPredictor.predict_batch``, which groups them into one solve per
LLC associativity, and checks every prediction against one solve per
machine (how sweeps were cut before).  A chunking case solves 3,000
mixes on LLC #2 through the predictor, in ``CHUNK_MIXES`` chunks, and as
one batch, and reports the cost per mix of each.  Both report their
timings without a floor: the equality checks are their guards.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_mppm_batch.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from repro.contention import make_contention_model
from repro.core import MPPM, MPPMConfig
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.predictors.mppm import CHUNK_MIXES

#: Every registered ``mppm:*`` spec as (contention model, config);
#: the equivalence sweep runs all of them, the timing run uses FOA.
VARIANTS = {
    "foa": ("foa", MPPMConfig()),
    "sdc": ("sdc", MPPMConfig()),
    "prob": ("prob", MPPMConfig()),
    "windowed": ("foa", MPPMConfig(use_windowed_cpi=True)),
    "figure2": ("foa", MPPMConfig(literal_figure2_update=True)),
}

#: Full mode: default experiment traces, a workload-space-sized sweep.
DEFAULT_INSTRUCTIONS = 200_000
DEFAULT_MIXES = 300
#: Speedup floor at the default scale (measured ~25x; the margin
#: absorbs machine noise while still catching a fallback or regression).
DEFAULT_FLOOR = 5.0
#: Quick mode: short traces + a small sweep for CI smoke; fixed numpy
#: overheads eat into the ratio at this size, so the floor only needs
#: to prove the batched path is live (a fallback would measure ~1x).
QUICK_INSTRUCTIONS = 50_000
QUICK_MIXES = 64
QUICK_FLOOR = 2.0

#: How many mixes of the sweep go through the all-variant identity check
#: (every mix is checked for the timed FOA variant regardless).
IDENTITY_SLICE = 10

#: The many-profile case (both modes): 300 four-program mixes over every
#: benchmark of the suite, on the Table 2 LLC below.
MANY_PROFILE_MIXES = 300
MANY_PROFILE_LLC = 4

#: The batch-of-one case (both modes): this many four-program mixes,
#: each solved alone, and the speedup floor over the reference loop
#: (tight enough to catch the one-mix solve losing most of its lead).
ONE_MIX_SOLVES = 100
ONE_MIX_FLOOR = 2.5

#: The design-space case (both modes): mixes per Table 2 LLC, and the
#: ``mppm:*`` specs (``VARIANTS`` keys) they run under.
DESIGN_SPACE_MIXES = 125
DESIGN_SPACE_SPECS = ("foa", "sdc", "prob")

#: The chunking case (both modes): ``mppm:foa`` mixes on one Table 2 LLC.
CHUNKED_MIXES = 3_000
CHUNKED_LLC = 2


def _assert_identical(reference, batched):
    assert len(reference) == len(batched)
    for ref, bat in zip(reference, batched):
        assert ref.kernel == "reference" and bat.kernel == "batched"
        assert ref.iterations == bat.iterations
        assert ref.converged == bat.converged
        for ref_program, bat_program in zip(ref.programs, bat.programs):
            # Exact equality on purpose: the kernels share op order.
            assert ref_program.predicted_cpi == bat_program.predicted_cpi


def measure_kernels(
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    num_mixes: int = DEFAULT_MIXES,
    rounds: int = 3,
) -> dict:
    """Time both kernels over two mix sweeps; returns seconds + speedups.

    Uses best-of-``rounds`` per kernel and asserts bit-identical results
    for every ``mppm:*`` variant along the way.  The second sweep is the
    many-profile case, reported under ``"many_profiles"``.
    """
    interval = min(4_000, num_instructions // 50)
    setup = ExperimentSetup(
        config=ExperimentConfig(
            num_instructions=num_instructions, interval_instructions=interval
        )
    )
    machine = setup.machine(num_cores=4)
    profiles = setup.profiles(machine)
    mixes = setup.mixes(num_programs=4, num_mixes=num_mixes, seed=0)
    batches = [[profiles[name] for name in mix.programs] for mix in mixes]

    for contention, config in VARIANTS.values():
        model = (machine, make_contention_model(contention), config)
        slice_ = batches[:IDENTITY_SLICE]
        _assert_identical(
            MPPM(*model, kernel="reference").predict_batch(slice_),
            MPPM(*model, kernel="batched").predict_batch(slice_),
        )

    result = {
        "num_instructions": num_instructions,
        "num_mixes": num_mixes,
        "variants_checked": sorted(VARIANTS),
        **_time_kernels(machine, batches, rounds),  # mppm:foa defaults
    }

    many_machine = setup.machine(num_cores=4, llc_config=MANY_PROFILE_LLC)
    many_profiles = setup.profiles(many_machine)
    many_mixes = setup.mixes(num_programs=4, num_mixes=MANY_PROFILE_MIXES, seed=1)
    many_batches = [[many_profiles[name] for name in mix.programs] for mix in many_mixes]
    distinct = len({name for mix in many_mixes for name in mix.programs})
    assert distinct == len(setup.benchmark_names), (
        f"the many-profile case touches only {distinct} of "
        f"{len(setup.benchmark_names)} benchmarks"
    )
    result["many_profiles"] = {
        "llc_config": MANY_PROFILE_LLC,
        "num_mixes": MANY_PROFILE_MIXES,
        "distinct_profiles": distinct,
        **_time_kernels(many_machine, many_batches, rounds),
    }

    one_mixes = setup.mixes(num_programs=4, num_mixes=ONE_MIX_SOLVES, seed=2)
    one_batches = [[profiles[name] for name in mix.programs] for mix in one_mixes]
    result["batch_of_one"] = {
        "num_mixes": ONE_MIX_SOLVES,
        **_time_kernels(machine, one_batches, rounds, one_at_a_time=True),
    }
    result["design_space"] = _design_space(setup, rounds)
    result["chunked"] = _chunked(setup, rounds)
    return result


def _design_space(setup, rounds: int) -> dict:
    """Grouped sweeps against one solve per machine: equal, then timed."""
    machines = setup.design_space(num_cores=4)
    mixes = setup.mixes(num_programs=4, num_mixes=DESIGN_SPACE_MIXES, seed=3)
    items = [(mix, machine) for machine in machines for mix in mixes]
    specs = [f"mppm:{name}" for name in DESIGN_SPACE_SPECS]

    def grouped():
        return [p for spec in specs for p in setup.predictor(spec).predict_batch(items)]

    def per_machine():
        out = []
        for spec, name in zip(specs, DESIGN_SPACE_SPECS):
            contention, config = VARIANTS[name]
            for machine in machines:
                profiles = setup.profiles(machine)
                batches = [[profiles[program] for program in mix.programs] for mix in mixes]
                model = MPPM(machine, make_contention_model(contention), config)
                out += model.predict_batch(batches, predictor=spec)
        return out

    assert grouped() == per_machine(), "grouped sweep differs from per-machine solves"
    seconds = _best_of({"grouped": grouped, "per_machine": per_machine}, rounds)
    return {
        "num_mixes": DESIGN_SPACE_MIXES,
        "llcs": len(machines),
        "specs": specs,
        "grouped_seconds": seconds["grouped"],
        "per_machine_seconds": seconds["per_machine"],
        "speedup": seconds["per_machine"] / seconds["grouped"],
    }


def _chunked(setup, rounds: int) -> dict:
    """One LLC's mixes in ``CHUNK_MIXES`` chunks against one batch: equal, then timed."""
    machine = setup.machine(num_cores=4, llc_config=CHUNKED_LLC)
    profiles = setup.profiles(machine)
    mixes = setup.mixes(num_programs=4, num_mixes=CHUNKED_MIXES, seed=4)
    batches = [[profiles[name] for name in mix.programs] for mix in mixes]
    predictor = setup.predictor("mppm:foa")

    def chunked():
        return predictor.predict_batch([(mix, machine) for mix in mixes])

    def one_batch():
        return MPPM(machine).predict_batch(batches, predictor="mppm:foa")

    assert chunked() == one_batch(), "chunked solves differ from one batch"
    seconds = _best_of({"chunked": chunked, "one_batch": one_batch}, rounds)
    return {
        "num_mixes": CHUNKED_MIXES,
        "llc_config": CHUNKED_LLC,
        "chunk_mixes": CHUNK_MIXES,
        "chunked_us_per_mix": 1e6 * seconds["chunked"] / CHUNKED_MIXES,
        "one_batch_us_per_mix": 1e6 * seconds["one_batch"] / CHUNKED_MIXES,
    }


def _best_of(solvers: dict, rounds: int) -> dict:
    """Each solver's best-of-``rounds`` seconds, the solvers alternating per
    round so host speed drift reaches every minimum alike."""
    timings = {name: [] for name in solvers}
    for _ in range(rounds):
        for name, solve in solvers.items():
            start = time.perf_counter()
            solve()
            timings[name].append(time.perf_counter() - start)
    return {name: min(seconds) for name, seconds in timings.items()}


def _time_kernels(machine, batches, rounds: int, one_at_a_time: bool = False) -> dict:
    """Check both kernels agree on every mix, then time each best-of-``rounds``.

    Both solve ``mppm:foa`` on ``machine``.  With ``one_at_a_time`` the
    batched kernel solves each mix as its own batch of one.  The minimum
    is the least noisy estimator of the true cost.
    """

    def solve(kernel: str):
        model = MPPM(machine, kernel=kernel)
        if one_at_a_time and kernel == "batched":
            return [model.predict_batch([mix])[0] for mix in batches]
        return model.predict_batch(batches)

    _assert_identical(solve("reference"), solve("batched"))
    seconds = _best_of({k: lambda k=k: solve(k) for k in ("batched", "reference")}, rounds)
    batched_seconds, reference_seconds = seconds["batched"], seconds["reference"]
    return {
        "batched_seconds": batched_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / batched_seconds,
    }


def run_guard(quick: bool = False) -> dict:
    """Measure and enforce the speedup floor; returns the measurement."""
    result = measure_kernels(
        num_instructions=QUICK_INSTRUCTIONS if quick else DEFAULT_INSTRUCTIONS,
        num_mixes=QUICK_MIXES if quick else DEFAULT_MIXES,
    )
    floor = QUICK_FLOOR if quick else DEFAULT_FLOOR
    many = result["many_profiles"]
    one = result["batch_of_one"]
    for label, case, case_floor in (
        (f"{result['num_mixes']} 4-core mixes", result, floor),
        (
            f"{many['num_mixes']} 4-core mixes over {many['distinct_profiles']} "
            f"profiles (LLC #{many['llc_config']})",
            many,
            floor,
        ),
        (f"{one['num_mixes']} 4-core mixes one at a time", one, ONE_MIX_FLOOR),
    ):
        print(
            f"MPPM solve of {label} "
            f"({result['num_instructions']} instructions per trace): "
            f"batched {case['batched_seconds']:.3f}s, "
            f"reference {case['reference_seconds']:.3f}s "
            f"-> speedup {case['speedup']:.1f}x (floor {case_floor:.1f}x)"
        )
        assert case["speedup"] >= case_floor, (
            f"batched MPPM kernel regressed (or silently fell back to the "
            f"reference path) on {label}: {case['speedup']:.2f}x < required {case_floor:.1f}x"
        )
    space, chunked = result["design_space"], result["chunked"]
    print(
        f"MPPM sweep of {space['num_mixes']} 4-core mixes x {space['llcs']} LLCs x "
        f"{len(space['specs'])} specs: grouped {space['grouped_seconds']:.3f}s, "
        f"per machine {space['per_machine_seconds']:.3f}s -> {space['speedup']:.2f}x"
    )
    print(
        f"MPPM solve of {chunked['num_mixes']} 4-core mixes on LLC #{chunked['llc_config']}: "
        f"{chunked['chunked_us_per_mix']:.1f} us per mix in chunks of at most "
        f"{chunked['chunk_mixes']}, {chunked['one_batch_us_per_mix']:.1f} us in one batch"
    )
    return result


def test_batched_mppm_guard():
    """Pytest entry point: full default-scale guard."""
    run_guard(quick=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep + relaxed floor (CI smoke: catches a fallback, "
        "tolerates shared-runner noise)",
    )
    args = parser.parse_args()
    result = run_guard(quick=args.quick)
    from perf_snapshot import round_floats, write_snapshot

    write_snapshot("mppm_batch", round_floats(result), quick=args.quick)


if __name__ == "__main__":
    main()
