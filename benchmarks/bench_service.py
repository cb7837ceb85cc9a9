"""Load-generator benchmark for the prediction service.

Starts a live ``repro serve`` instance (in-process, on a background
thread) and drives it with concurrent asyncio clients through two
phases over the same mix population:

* **cold** — every prediction is computed: measures sustained
  predictions/sec through profiling + batching + the engine;
* **warm** — every prediction is memoised: measures the pure
  serve-path throughput, and *asserts* (via ``/stats``) that the warm
  phase computed exactly zero new results.

Along the way one served prediction is checked **bit-identical** to
what the batch path (``ExperimentSetup.predict`` — the machinery
behind ``repro predict``) returns for the same spec strings: the
service is a transport, not a different model.

Reports client-side p50/p95/p99 latency per phase and writes the
committed snapshot ``BENCH_service.json`` at the repo root.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import time
from typing import Dict, List, Sequence

from perf_snapshot import round_floats, write_snapshot

from repro.experiments import ExperimentSetup
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.payloads import prediction_payload
from repro.service.stats import LatencyTracker

#: Full scale matches the CLI defaults (bit-identity against
#: ``repro predict`` with no extra flags); quick scale matches the CI
#: smoke commands (``--instructions 20000``).
DEFAULT_INSTRUCTIONS = 200_000
QUICK_INSTRUCTIONS = 20_000

PREDICTOR = "mppm:foa"


def _phase_summary(latency: LatencyTracker, predictions: int, seconds: float) -> Dict:
    return {
        "predictions": predictions,
        "seconds": seconds,
        "predictions_per_second": predictions / seconds if seconds else 0.0,
        "latency_ms": latency.summary(),
    }


async def _drive(
    host: str, port: int, mixes: Sequence[List[str]], clients: int
) -> Dict:
    """One phase: the mixes spread over ``clients`` concurrent connections."""
    latency = LatencyTracker()
    assignments: List[List[List[str]]] = [list(mixes[i::clients]) for i in range(clients)]

    async def worker(rows: List[List[str]]) -> int:
        served = 0
        async with ServiceClient(host, port) as client:
            for row in rows:
                start = time.perf_counter()
                response = await client.predict(mix=row, predictor=PREDICTOR)
                latency.record(time.perf_counter() - start)
                served += response["count"]
        return served

    start = time.perf_counter()
    counts = await asyncio.gather(*(worker(rows) for rows in assignments if rows))
    seconds = time.perf_counter() - start
    return _phase_summary(latency, sum(counts), seconds)


def _reference_prediction(config: ServiceConfig, mix: List[str]) -> Dict:
    """What ``repro predict`` computes for the same specs (the oracle)."""
    setup = ExperimentSetup(config=config.experiment_config(), workload=config.workload)
    try:
        machine = setup.machine(num_cores=len(mix), llc_config=1)
        from repro.workloads import WorkloadMix

        prediction = setup.predict(WorkloadMix(programs=tuple(mix)), machine, predictor=PREDICTOR)
        return prediction_payload(prediction)
    finally:
        setup.close()


def run_benchmark(quick: bool = False, num_mixes: int = 24, clients: int = 8) -> Dict:
    """Cold + warm load phases against a live service; returns the measurement."""
    instructions = QUICK_INSTRUCTIONS if quick else DEFAULT_INSTRUCTIONS
    config = ServiceConfig(instructions=instructions)
    with ServiceThread(config) as live:
        service = live.service
        assert service is not None
        # The mix population, sampled through the service's own setup so
        # the benchmark exercises exactly the registry path clients use.
        sample_setup = service._setup_for(config.workload)
        mixes = [list(mix.programs) for mix in sample_setup.mixes(4, num_mixes, seed=17)]

        cold = asyncio.run(_drive(live.host, live.port, mixes, clients))
        computed_cold = service.stats.predictions_computed

        warm = asyncio.run(_drive(live.host, live.port, mixes, clients))
        computed_warm = service.stats.predictions_computed - computed_cold
        assert computed_warm == 0, (
            f"warm phase recomputed {computed_warm} predictions; "
            "the shared result cache should have served all of them"
        )

        # Bit-identity: the served payload equals the batch path's.
        served = asyncio.run(_drive_single(live.host, live.port, mixes[0]))
        expected = _reference_prediction(config, mixes[0])
        assert served == expected, (
            "served prediction differs from ExperimentSetup.predict for the "
            f"same specs:\nserved:   {served}\nexpected: {expected}"
        )

        stats = service.stats_payload()
    return {
        "instructions": instructions,
        "num_mixes": num_mixes,
        "clients": clients,
        "cold": cold,
        "warm": warm,
        "warm_recomputed": computed_warm,
        "batches": stats["batches"],
        "engine_cache": stats["engine_cache"],
        "bit_identical": True,
    }


async def _drive_single(host: str, port: int, mix: List[str]) -> Dict:
    async with ServiceClient(host, port) as client:
        response = await client.predict(mix=mix, predictor=PREDICTOR)
        return response["prediction"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale: short traces, same assertions",
    )
    parser.add_argument(
        "--mixes", type=int, default=24, help="distinct 4-program mixes to serve (default: 24)"
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent client connections (default: 8)"
    )
    args = parser.parse_args()
    result = run_benchmark(quick=args.quick, num_mixes=args.mixes, clients=args.clients)
    for phase in ("cold", "warm"):
        summary = result[phase]
        latency = summary["latency_ms"]
        print(
            f"{phase:>4}: {summary['predictions']} predictions in "
            f"{summary['seconds']:.2f}s -> {summary['predictions_per_second']:.1f}/s, "
            f"p50 {latency['p50']:.1f}ms p95 {latency['p95']:.1f}ms p99 {latency['p99']:.1f}ms"
        )
    print(
        f"warm recomputed: {result['warm_recomputed']} "
        f"(cache hits {result['engine_cache']['hits']}), "
        f"max batch {result['batches']['max_size']}, bit-identical: yes"
    )
    write_snapshot("service", round_floats(result), quick=args.quick)


if __name__ == "__main__":
    main()
