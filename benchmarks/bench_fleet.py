"""Benchmark guard: the distributed fleet backend vs serial execution.

The fleet backend's contract is that distribution changes *where* jobs
run and nothing else.  This guard runs the same sweep (MPPM predictions
plus detailed reference simulations) serially and on a two-worker
loopback fleet and enforces:

* **bit-identity** — every fleet prediction and simulation equals the
  serial run's, field for field;
* **fleet-wide dedup** — repeating the sweep on the warm driver stores
  zero new results and dispatches zero jobs; a second, cache-less
  driver attached to the same fleet has every simulate job answered
  from a worker's cache (``remote_cache_hits``) instead of recomputed;
* **liveness** — the wave actually spread over both workers and every
  dispatched job completed.

Wall-clock throughput (jobs/second per phase) is recorded for the
committed snapshot ``BENCH_fleet.json``; on a single-core CI box the
fleet is expected to carry launch/transport overhead, so only the
invariants above gate, never the speed ratio.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from perf_snapshot import round_floats, write_snapshot

from repro.experiments import SIMULATE, ExperimentConfig, ExperimentSetup
from repro.workloads import small_suite

PREDICTOR = "mppm:foa"


def _setup(config: ExperimentConfig, benchmarks: int, **kwargs) -> ExperimentSetup:
    return ExperimentSetup(config=config, suite=small_suite(benchmarks), **kwargs)


def run_benchmark(quick: bool, tmp_dir) -> dict:
    benchmarks = 5 if quick else 8
    num_mixes = 4 if quick else 10
    config = ExperimentConfig(
        scale=16,
        num_instructions=20_000 if quick else 50_000,
        interval_instructions=1_000,
    )

    serial = _setup(config, benchmarks)
    machine = serial.machine(num_cores=2)
    mixes = serial.mixes(2, num_mixes, seed=3)
    ops = [("mppm:foa", mix, machine) for mix in mixes]
    simulations = [(SIMULATE, mix, machine) for mix in mixes]

    start = time.perf_counter()
    serial_predictions = serial.predictor_batch(ops)
    serial_runs = [run.to_dict() for run in serial.predictor_batch(simulations)]
    serial_seconds = time.perf_counter() - start
    serial.close()

    launch_start = time.perf_counter()
    fleet = _setup(
        config, benchmarks, jobs="fleet:localhost:2", cache_dir=tmp_dir / "fleet-cache"
    )
    launch_seconds = time.perf_counter() - launch_start
    try:
        start = time.perf_counter()
        fleet_predictions = fleet.predictor_batch(ops)
        fleet_runs = [run.to_dict() for run in fleet.predictor_batch(simulations)]
        cold_seconds = time.perf_counter() - start

        assert fleet_predictions == serial_predictions, (
            "fleet predictions differ from the serial run"
        )
        assert fleet_runs == serial_runs, (
            "fleet reference simulations differ from the serial run"
        )

        cold_stats = fleet.engine.backend.stats()
        stores = fleet.engine.cache.stores

        start = time.perf_counter()
        again = fleet.predictor_batch(ops)
        warm_seconds = time.perf_counter() - start
        assert again == serial_predictions
        warm_stats = fleet.engine.backend.stats()
        assert fleet.engine.cache.stores == stores, (
            "warm fleet sweep stored new results; the driver cache should "
            "have resolved every job"
        )
        assert warm_stats["dispatched"] == cold_stats["dispatched"], (
            "warm fleet sweep dispatched jobs; the driver cache should have "
            "resolved every one before the backend"
        )
        assert cold_stats["alive"] == 2
        assert cold_stats["completed"] == cold_stats["dispatched"]
        spread = [worker["completed"] for worker in cold_stats["workers"]]
        assert all(done > 0 for done in spread), (
            f"one worker sat idle through the cold wave: {spread}"
        )
    finally:
        fleet.close()

    # A second, cache-less driver on the same (re-launched) fleet: every
    # simulate job must be answered from a worker's persisted cache.
    from repro.engine import Executor
    from repro.engine.remote import FleetBackend

    backend = FleetBackend("fleet:localhost:2", cache_dir=str(tmp_dir / "fleet-cache"))
    try:
        second_driver = _setup(config, benchmarks, engine=Executor(backend=backend))
        second_runs = [
            run.to_dict()
            for run in second_driver.predictor_batch(
                [
                    (SIMULATE, mix, second_driver.machine(num_cores=2))
                    for mix in second_driver.mixes(2, num_mixes, seed=3)
                ]
            )
        ]
        assert second_runs == serial_runs
        remote_hits = backend.stats()["remote_cache_hits"]
        assert remote_hits == num_mixes, (
            f"expected every one of {num_mixes} simulate jobs answered from a "
            f"worker cache, got {remote_hits}"
        )
    finally:
        backend.close()

    cold_jobs = cold_stats["dispatched"]
    return {
        "benchmarks": benchmarks,
        "num_mixes": num_mixes,
        "workers": 2,
        "launch_seconds": launch_seconds,
        "serial_seconds": serial_seconds,
        "cold": {
            "seconds": cold_seconds,
            "jobs": cold_jobs,
            "jobs_per_second": cold_jobs / cold_seconds if cold_seconds else 0.0,
            "per_worker_completed": spread,
        },
        "warm": {"seconds": warm_seconds, "dispatched": 0, "stores": 0},
        "second_driver_remote_cache_hits": remote_hits,
        "bit_identical": True,
    }


def main() -> None:
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale: short traces, same assertions",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        result = run_benchmark(quick=args.quick, tmp_dir=Path(tmp))
    cold = result["cold"]
    print(
        f"serial {result['serial_seconds']:.2f}s; fleet launch "
        f"{result['launch_seconds']:.2f}s, cold {cold['jobs']} jobs in "
        f"{cold['seconds']:.2f}s -> {cold['jobs_per_second']:.1f} jobs/s "
        f"(per-worker {cold['per_worker_completed']}), warm "
        f"{result['warm']['seconds']:.2f}s with zero dispatches"
    )
    print(
        f"second driver: {result['second_driver_remote_cache_hits']} simulate "
        f"jobs answered from worker caches, bit-identical: yes"
    )
    write_snapshot("fleet", round_floats(result), quick=args.quick)


if __name__ == "__main__":
    main()
