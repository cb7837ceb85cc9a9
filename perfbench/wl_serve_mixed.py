"""``serve-mixed``: a closed loop of single-mix requests against ``repro serve``.

The server runs as a subprocess with its default in-memory result cache.
Set-up starts it and sends one ``mixes`` request per LLC 1-6 covering
all 29 benchmarks, so no profiling happens under load.  One unit is a
round of 250 requests from a plan drawn from the seed: each request either
repeats an earlier one (a cache read) or asks for a mix not asked for
before on its LLC (a solve and a cache write), with new requests cycling
through LLC 1-6.  Two keep-alive clients each send their next request
only when the previous answer arrived.  Sampled answers must equal, bit
for bit, what ``ExperimentSetup.predict`` gives in this process.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import OUT, ROOT, Unit, bootstrap_command, child_env

SETUPS = 1
#: A fixed five rounds (1,250 requests) whatever ``--seconds`` says: the
#: server gets slower as its result cache fills (about 20% over 3,000
#: requests), so runs of different lengths would not be comparable.
MIN_UNITS = 5
MAX_UNITS = 5
ROUND = 250
CLIENTS = 2
PROGRAMS = 4
LLCS = (1, 2, 3, 4, 5, 6)
REPEAT_SHARE = 0.5
SAMPLES_PER_LLC = 1
PREDICTOR = "mppm:foa"
ANNOUNCE = "repro-serve listening on http://"


def prepare(seed: int) -> Dict[str, Any]:
    from repro.workloads import workload_for

    names = workload_for("suite:spec29").suite().names
    padded = names + names[: -len(names) % PROGRAMS]
    warm = [padded[i : i + PROGRAMS] for i in range(0, len(padded), PROGRAMS)]
    used = {(tuple(sorted(mix)), llc) for mix in warm for llc in LLCS}
    rng = random.Random(seed)
    plan: List[Tuple[Tuple[str, ...], int]] = []
    issued: List[Tuple[Tuple[str, ...], int]] = []
    samples: Dict[int, List[int]] = {llc: [] for llc in LLCS}
    for index in range(MAX_UNITS * ROUND):
        if issued and rng.random() < REPEAT_SHARE:
            plan.append(rng.choice(issued))
            continue
        llc = LLCS[len(issued) % len(LLCS)]
        request = (tuple(sorted(rng.choice(names) for _ in range(PROGRAMS))), llc)
        while request in used:
            request = (tuple(sorted(rng.choice(names) for _ in range(PROGRAMS))), llc)
        used.add(request)
        issued.append(request)
        plan.append(request)
        if index < ROUND and len(samples[llc]) < SAMPLES_PER_LLC:
            samples[llc].append(index)
    return {
        "warm": warm,
        "plan": plan,
        "samples": sorted(i for indices in samples.values() for i in indices),
    }


def _post(connection: http.client.HTTPConnection, path: str, payload: Dict) -> Tuple[int, Dict]:
    connection.request(
        "POST", path, body=json.dumps(payload), headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def _read_announce(process: subprocess.Popen, timeout: float) -> Optional[str]:
    found: List[str] = []

    def reader() -> None:
        for line in process.stdout:
            if line.startswith(ANNOUNCE):
                found.append(line[len(ANNOUNCE) :].strip())
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    return found[0] if found else None


def setup(inputs: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=OUT, suffix=".report.json", delete=False) as handle:
        report = Path(handle.name)
    stderr = tempfile.TemporaryFile(dir=OUT)
    process = subprocess.Popen(
        bootstrap_command(report, trace, ["serve", "--port", "0"]),
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )
    state = {"process": process, "report": report, "stderr": stderr, "trace": trace}
    address = _read_announce(process, timeout=120)
    if address is None:
        close(state)
        raise RuntimeError("repro serve did not announce its port")
    host, port = address.rsplit(":", 1)
    state.update(host=host, port=int(port), served={})
    connection = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        for llc in LLCS:
            payload = {"mixes": inputs["warm"], "machine": llc, "predictor": PREDICTOR}
            status, body = _post(connection, "/predict", payload)
            if status != 200:
                close(state)
                raise RuntimeError(f"warm-up request failed with {status}: {body}")
    finally:
        connection.close()
    return state


def unit(state: Dict[str, Any], inputs: Dict[str, Any], index: int) -> Unit:
    plan = inputs["plan"]
    wanted = set(inputs["samples"])
    positions = iter(range(index * ROUND, (index + 1) * ROUND))
    lock = threading.Lock()
    latencies: List[float] = []
    failures = [0]

    def client() -> None:
        connection = http.client.HTTPConnection(state["host"], state["port"], timeout=120)
        try:
            while True:
                with lock:
                    position = next(positions, None)
                if position is None:
                    return
                programs, llc = plan[position]
                payload = {"mix": list(programs), "machine": llc, "predictor": PREDICTOR}
                started = time.perf_counter()
                try:
                    status, body = _post(connection, "/predict", payload)
                except (OSError, http.client.HTTPException, ValueError):
                    status, body = 0, {}
                    connection.close()
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed * 1000.0)
                    if status != 200:
                        failures[0] += 1
                    elif position in wanted:
                        state["served"][position] = body["prediction"]
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start_ns = time.perf_counter_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end_ns = time.perf_counter_ns()
    return Unit(
        seconds=(end_ns - start_ns) / 1e9,
        ops=ROUND,
        failed=failures[0],
        samples={"latency_ms": latencies},
        start_ns=start_ns,
        end_ns=end_ns,
    )


def close(state: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Read ``/stats``, shut the server down and collect its report."""
    process: subprocess.Popen = state["process"]
    reports: List[Dict[str, Any]] = []
    try:
        if "port" in state and process.poll() is None:
            connection = http.client.HTTPConnection(state["host"], state["port"], timeout=30)
            try:
                connection.request("GET", "/stats")
                stats = json.loads(connection.getresponse().read())
                state["batches"] = stats["batches"]
                _post(connection, "/shutdown", {})
            finally:
                connection.close()
        process.wait(timeout=60)
    except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
        process.kill()
        process.wait()
    finally:
        process.stdout.close()
        state["stderr"].close()
    report_path: Path = state["report"]
    if state["trace"] and report_path.stat().st_size:
        report = json.loads(report_path.read_text())
        report["counters"]["service.batch.mean_size"] = state.get("batches", {}).get(
            "mean_size", 0.0
        )
        reports.append(report)
    report_path.unlink(missing_ok=True)
    return reports


def verify(state: Dict[str, Any], inputs: Dict[str, Any]) -> int:
    """Count sampled answers that differ from an in-process ``ExperimentSetup.predict``."""
    from repro.experiments import ExperimentConfig, ExperimentSetup
    from repro.service.payloads import prediction_payload
    from repro.workloads import WorkloadMix

    # ``repro serve``'s defaults: 200k instructions in 50 intervals, scale 16, seed 0.
    local = ExperimentSetup(
        config=ExperimentConfig(num_instructions=200_000, interval_instructions=4_000)
    )
    failed = 0
    for position in inputs["samples"]:
        programs, llc = inputs["plan"][position]
        machine = local.machine(num_cores=len(programs), llc_config=llc)
        expected = prediction_payload(
            local.predict(WorkloadMix(programs=programs), machine, predictor=PREDICTOR)
        )
        failed += json.loads(json.dumps(expected)) != state["served"].get(position)
    return failed
