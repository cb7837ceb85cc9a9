"""Synthesize PMU-shaped sample files from synthetic benchmarks.

The inverse of the ingest pipeline, and the thing that makes it
testable without hardware: take any existing :class:`BenchmarkSpec`,
replay it through the single-core simulator on a chosen
machine, and write the per-interval LLC-loads / LLC-misses /
instructions-retired series in exactly the CSV shape a real PMU
sampler produces — one "core" per benchmark, timestamps from the
simulated cycle counts and the descriptor's clock frequency.

CI's closed loop is: known profile → :func:`write_samples` →
``repro ingest`` → fitted ``perf:`` workload whose replayed rates match
the originals within tolerance.

Runnable directly::

    PYTHONPATH=src python -m repro.ingest.synth gamess soplex --out samples.csv
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.config.machine import MachineConfig
from repro.ingest.samples import REQUIRED_COLUMNS, MachineDescriptor
from repro.simulators.single_core import SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.generator import TraceGenerator


def synthesize_rows(
    specs: Sequence[BenchmarkSpec],
    machine: MachineConfig,
    num_instructions: int = 60_000,
    interval_instructions: int = 1_500,
    seed: int = 0,
    frequency_ghz: float = 2.0,
) -> List[Tuple[int, float, int, int, int]]:
    """Per-sample ``(core, timestamp, llc_loads, llc_misses, instructions)`` rows.

    Benchmark ``i`` becomes core ``i``; each profiling interval of its
    isolated run becomes one sample window, timestamped at the window's
    end by the simulated cycle count.
    """
    generator = TraceGenerator(num_instructions=num_instructions, seed=seed)
    simulator = SingleCoreSimulator(
        machine.single_core(), interval_instructions=interval_instructions
    )
    cycles_per_second = frequency_ghz * 1e9
    rows: List[Tuple[int, float, int, int, int]] = []
    for core, spec in enumerate(specs):
        run = simulator.run(generator.generate(spec))
        cycles = 0.0
        for interval in run.intervals:
            cycles += interval.cycles
            rows.append(
                (
                    core,
                    cycles / cycles_per_second,
                    interval.llc_accesses,
                    interval.llc_misses,
                    interval.instructions,
                )
            )
    return rows


def rows_to_csv(rows: Sequence[Tuple[int, float, int, int, int]]) -> str:
    lines = [",".join(REQUIRED_COLUMNS)]
    for core, timestamp, loads, misses, instructions in rows:
        lines.append(f"{core},{timestamp:.9f},{loads},{misses},{instructions}")
    return "\n".join(lines) + "\n"


def write_samples(
    specs: Sequence[BenchmarkSpec],
    machine: MachineConfig,
    out_path: Path,
    num_instructions: int = 60_000,
    interval_instructions: int = 1_500,
    seed: int = 0,
    frequency_ghz: float = 2.0,
) -> Tuple[Path, Path]:
    """Write a sample CSV plus its ``<stem>.machine.json`` descriptor.

    Returns ``(samples_path, machine_path)``; the descriptor declares
    exactly the synthesized core ids, so streams and descriptors that
    drift apart are caught at parse time.
    """
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    rows = synthesize_rows(
        specs,
        machine,
        num_instructions=num_instructions,
        interval_instructions=interval_instructions,
        seed=seed,
        frequency_ghz=frequency_ghz,
    )
    out_path.write_text(rows_to_csv(rows), encoding="utf-8")
    descriptor = MachineDescriptor.from_machine(
        machine.single_core(),
        cores=range(len(specs)),
        frequency_ghz=frequency_ghz,
    )
    machine_path = out_path.with_name(out_path.stem + ".machine.json")
    machine_path.write_text(
        json.dumps(descriptor.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return out_path, machine_path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Synthesize a PMU-shaped sample CSV from suite benchmarks."
    )
    parser.add_argument("benchmarks", nargs="+", help="benchmark names from the suite")
    parser.add_argument("--out", required=True, type=Path, help="output CSV path")
    parser.add_argument("--suite", default="suite:spec29", help="workload spec to draw from")
    parser.add_argument("--llc-config", type=int, default=1, help="Table 2 LLC configuration")
    parser.add_argument("--scale", type=int, default=16, help="cache capacity scale divisor")
    parser.add_argument("--instructions", type=int, default=60_000)
    parser.add_argument("--interval-instructions", type=int, default=1_500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--frequency-ghz", type=float, default=2.0)
    args = parser.parse_args(argv)

    from repro.config.llc_configs import machine_with_llc
    from repro.config.scaling import scaled
    from repro.workloads.registry import workload_for

    try:
        suite = workload_for(args.suite).suite()
        specs = [suite[name] for name in args.benchmarks]
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    machine = scaled(machine_with_llc(args.llc_config, num_cores=1), args.scale)
    samples_path, machine_path = write_samples(
        specs,
        machine,
        args.out,
        num_instructions=args.instructions,
        interval_instructions=args.interval_instructions,
        seed=args.seed,
        frequency_ghz=args.frequency_ghz,
    )
    print(f"wrote {samples_path} and {machine_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
