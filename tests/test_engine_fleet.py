"""Tests for the distributed fleet backend (``fleet:`` specs).

The contract pinned here: the fleet spec grammar accepts the three
worker sources (``localhost:N``, ``ssh=...``, ``attach=...``) and
rejects malformed specs with structured errors; a loopback fleet is
bit-identical to serial execution (library sweeps *and* the CLI stress
experiment); a warm fleet recomputes nothing (zero cache stores, zero
dispatches); a worker's cache is honoured across drivers
(remote-cache pinning — no host recomputes another host's job); and
every failure mode — worker killed mid-wave, rogue worker answering
garbage, endpoint unreachable at startup, a job raising on a worker —
either completes on the survivors or surfaces as a structured
:class:`FleetError` / :class:`FleetJobError`, never a hang.
"""

from __future__ import annotations

import asyncio
import json
import operator
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.engine import Executor, Job
from repro.engine.remote import (
    DEFAULT_JOB_TIMEOUT,
    FleetBackend,
    FleetError,
    FleetJobError,
    FleetProtocolError,
    FleetSpecError,
    decode_result,
    encode_result,
    launch_local_workers,
    normalize_fleet_flag,
    parse_fleet_spec,
)
from repro.engine.remote import launch
from repro.engine.remote.client import WorkerClient
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.service import ServiceClient, ServiceConfig, serve
from repro.workloads import small_suite

CONFIG = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)


def fleet_setup(**kwargs) -> ExperimentSetup:
    return ExperimentSetup(config=CONFIG, suite=small_suite(5), **kwargs)


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


class TestFleetSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("fleet:localhost:2", ("localhost", 2, DEFAULT_JOB_TIMEOUT, "python3")),
            (
                "fleet:ssh=host1,host2,python=python3.11",
                ("ssh", ("host1", "host2"), DEFAULT_JOB_TIMEOUT, "python3.11"),
            ),
            # A key=value item is an option wherever it appears, never a host.
            ("fleet:ssh=a,timeout=5,b", ("ssh", ("a", "b"), 5.0, "python3")),
            (
                "fleet:attach=10.0.0.1:8001+10.0.0.2:8001",
                ("attach", ("10.0.0.1:8001", "10.0.0.2:8001"), DEFAULT_JOB_TIMEOUT, "python3"),
            ),
        ],
    )
    def test_worker_sources(self, spec, expected):
        parsed = parse_fleet_spec(spec)
        python = parsed.params.get("python", "python3")
        assert (parsed.family, parsed.head, parsed.params["timeout"], python) == expected

    def test_cli_flag_accepts_bare_and_prefixed_forms(self):
        assert normalize_fleet_flag("localhost:2") == "fleet:localhost:2"
        assert normalize_fleet_flag("fleet:localhost:2") == "fleet:localhost:2"
        assert normalize_fleet_flag("ssh=a,b") == "fleet:ssh=a,b"

    @pytest.mark.parametrize(
        "bad",
        [
            "fleet:",
            "fleet:localhost",
            "fleet:localhost:0",
            "fleet:localhost:x",
            "fleet:bogus:2",
            "fleet:ssh=",
            "fleet:attach=",
            "fleet:attach=hostonly",
            "fleet:localhost:2,timeout=x",
            "fleet:localhost:2,timeout=-1",
            "fleet:localhost:2,timeout=5,timeout=10",
            "fleet:localhost:2,timeout=nan",
            "fleet:localhost:2,timeout=inf",
            "fleet:localhost:2,python=py",
            "fleet:attach=h:1,python=py",
            "fleet:ssh=a,python=",
            "fleet:attach=h:0",
            "fleet:attach=h:99999",
            "fleet:ssh=a,foo=b",
            "fleet:localhostX:3",
        ],
    )
    def test_malformed_specs_are_rejected(self, bad):
        with pytest.raises(FleetSpecError):
            parse_fleet_spec(bad)

    def test_non_fleet_string_is_rejected(self):
        with pytest.raises(FleetSpecError):
            parse_fleet_spec("localhost:2")


# ---------------------------------------------------------------------------
# Loopback execution: bit-identity, warm-fleet dedup, observability
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial():
    setup = fleet_setup()
    yield setup
    setup.close()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    setup = fleet_setup(
        jobs="fleet:localhost:2", cache_dir=tmp_path_factory.mktemp("fleet-cache")
    )
    yield setup
    setup.close()


@pytest.fixture(scope="module")
def mixes(serial):
    return serial.mixes(2, 6, seed=3)


class TestLoopbackFleet:
    def test_predictions_are_bit_identical_to_serial(self, serial, fleet, mixes):
        machine = serial.machine(num_cores=2)
        ops = [("mppm:foa", mix, machine) for mix in mixes]
        assert fleet.predictor_batch(ops) == serial.predictor_batch(ops)

    def test_simulations_are_bit_identical_to_serial(self, serial, fleet, mixes):
        pairs = [(mix, serial.machine(num_cores=2)) for mix in mixes]
        for ours, theirs in zip(fleet.simulate_batch(pairs), serial.simulate_batch(pairs)):
            assert ours.to_dict() == theirs.to_dict()

    def test_warm_fleet_recomputes_nothing(self, fleet, mixes):
        ops = [("mppm:foa", mix, fleet.machine(num_cores=2)) for mix in mixes]
        first = fleet.predictor_batch(ops)
        stores = fleet.engine.cache.stores
        dispatched = fleet.engine.backend.stats()["dispatched"]
        again = fleet.predictor_batch(ops)
        assert again == first
        # Every job resolved from the driver's cache: nothing stored,
        # nothing even dispatched to a worker.
        assert fleet.engine.cache.stores == stores
        assert fleet.engine.backend.stats()["dispatched"] == dispatched

    def test_stats_expose_per_worker_counters(self, fleet, mixes):
        fleet.predictor_batch([("mppm:foa", mix, fleet.machine(num_cores=2)) for mix in mixes])
        stats = fleet.engine.backend.stats()
        assert stats["spec"] == "fleet:localhost:2"
        assert stats["alive"] == 2 and len(stats["workers"]) == 2
        assert stats["waves"] >= 1
        assert stats["completed"] == stats["dispatched"]
        for worker in stats["workers"]:
            assert worker["tag"] and worker["url"].startswith("http://127.0.0.1:")

    def test_each_trace_is_generated_once_fleet_wide(self, serial, tmp_path):
        # The profile step splits the benchmarks across the workers; the
        # simulate jobs then load every trace a worker did not profile
        # from the shared cache dir instead of regenerating it.
        setup = fleet_setup(jobs="fleet:localhost:2", cache_dir=tmp_path)
        try:
            machine = setup.machine(num_cores=2)
            mixes = setup.mixes(2, 8, seed=11)
            runs = setup.simulate_batch([(mix, machine) for mix in mixes])
            workers = [
                WorkerClient(worker["url"]).stats()["store"]
                for worker in setup.engine.backend.stats()["workers"]
            ]
        finally:
            setup.close()
        benchmarks = {name for mix in mixes for name in mix.programs}
        assert sum(worker["generated_traces"] for worker in workers) == len(benchmarks)
        assert sum(worker["simulated_profiles"] for worker in workers) == len(benchmarks)
        assert setup.store.generated_traces == 0
        expected = serial.simulate_batch([(mix, serial.machine(num_cores=2)) for mix in mixes])
        assert [run.to_dict() for run in runs] == [run.to_dict() for run in expected]

    def test_a_one_worker_fleet_traces_each_benchmark_once_in_its_worker(self, serial):
        # One worker and no cache dir: no profile step, and the driver
        # must not profile either — the worker's jobs do it lazily.
        setup = fleet_setup(jobs="fleet:localhost:1")
        try:
            machine = setup.machine(num_cores=2)
            mixes = setup.mixes(2, 4, seed=11)
            runs = setup.simulate_batch([(mix, machine) for mix in mixes])
            (worker,) = [
                WorkerClient(worker["url"]).stats()["store"]
                for worker in setup.engine.backend.stats()["workers"]
            ]
        finally:
            setup.close()
        benchmarks = {name for mix in mixes for name in mix.programs}
        assert worker["generated_traces"] == len(benchmarks)
        assert setup.store.generated_traces == 0 and setup.store.simulated_profiles == 0
        expected = serial.simulate_batch([(mix, serial.machine(num_cores=2)) for mix in mixes])
        assert [run.to_dict() for run in runs] == [run.to_dict() for run in expected]

    def test_workers_answer_from_their_caches_across_drivers(self, tmp_path):
        # Two drivers, no driver-side cache, sharing one fleet whose
        # workers persist results: the second driver's jobs are all
        # answered from worker caches — no host recomputes another
        # host's job.
        backend = FleetBackend("fleet:localhost:2", cache_dir=str(tmp_path))
        try:
            cold = ExperimentSetup(
                config=CONFIG, suite=small_suite(5), engine=Executor(backend=backend)
            )
            mixes = cold.mixes(2, 3, seed=5)
            machine = cold.machine(num_cores=2)
            pairs = [(mix, machine) for mix in mixes]
            first = [run.to_dict() for run in cold.simulate_batch(pairs)]
            assert backend.stats()["remote_cache_hits"] == 0
            warm = ExperimentSetup(
                config=CONFIG, suite=small_suite(5), engine=Executor(backend=backend)
            )
            second = [
                run.to_dict()
                for run in warm.simulate_batch(
                    [(mix, warm.machine(num_cores=2)) for mix in warm.mixes(2, 3, seed=5)]
                )
            ]
            assert second == first
            # Every simulate job of the second driver was answered from
            # a worker's cache (the profile step's bundle jobs carry no
            # content key; the workers load those bundles from disk).
            assert backend.stats()["remote_cache_hits"] == len(mixes)
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Wire protocol: results are registry envelopes, never pickles
# ---------------------------------------------------------------------------


class TestResultProtocol:
    def test_scalars_and_lists_round_trip(self):
        value = [1, "two", None, [3.5, True]]
        assert decode_result(json.loads(json.dumps(encode_result(value)))) == value

    def test_unregistered_results_do_not_encode(self):
        with pytest.raises(FleetProtocolError, match="object"):
            encode_result(object())
        with pytest.raises(FleetProtocolError):
            encode_result([1, object()])

    @pytest.mark.parametrize(
        "envelope",
        [
            {"type": "@pickle", "data": "gASVAAAAAAAAAAB9lC4="},
            {"type": "SingleCoreProfile", "payload": {}},
            {"items": []},
        ],
        ids=["pickle", "truncated", "untyped"],
    )
    def test_foreign_envelopes_are_protocol_errors(self, envelope):
        with pytest.raises(FleetProtocolError):
            decode_result(envelope)

    def test_invalid_array_payload_is_a_protocol_error(self, serial):
        bundle = serial.store.bundle(serial.suite.specs[0], [serial.machine(num_cores=2)])
        envelope = json.loads(json.dumps(encode_result(bundle)))
        (profiled,) = decode_result(envelope).profiled
        assert profiled.llc_trace.line.tobytes() == bundle.profiled[0].llc_trace.line.tobytes()
        corruptions = (
            lambda payload: payload["private_runs"][0]["line"].update(data="not base64!"),
            # Per-interval counts that do not add up to the stream's length.
            lambda payload: payload["private_runs"][0].update(
                interval_accesses=payload["private_runs"][0]["instructions"]
            ),
            lambda payload: payload["profiled"][0]["llc_trace"].update(run=-1),
        )
        for corrupt in corruptions:
            broken = json.loads(json.dumps(envelope))
            corrupt(broken["payload"])
            with pytest.raises(FleetProtocolError):
                decode_result(broken)


# ---------------------------------------------------------------------------
# Launch: every worker is started before any announce is read
# ---------------------------------------------------------------------------

def _pythonpath() -> str:
    """``PYTHONPATH`` for a fresh interpreter that must import this ``repro``."""
    src = str(Path(launch.__file__).resolve().parents[3])
    existing = os.environ.get("PYTHONPATH")
    return src if not existing else f"{src}{os.pathsep}{existing}"


#: Run as a fresh process so its stdout is a block-buffered pipe.
FORKING_DRIVER = """
import json
import sys

from repro.engine import tasks
from repro.engine.remote import FleetBackend
from repro.engine.remote.client import WorkerClient
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.workloads import small_suite

config = ExperimentConfig(scale=16, num_instructions=20_000, interval_instructions=1_000)
setup = ExperimentSetup(config=config, suite=small_suite(3))
machine = setup.machine(num_cores=2)
spec = setup.suite.specs[0]
warm = setup.store.get_profile(spec, machine)
rebuilt = tasks._resolve_setup("setup-rebuilt", *tasks._recipe(setup)[1:])
rebuilt.store.get_profile(spec, machine)
assert tasks.reconstructed_store_stats()["simulated_profiles"] == 1
print("buffered before the fork")
assert not (sys.stdout.line_buffering or sys.stdout.write_through)

backend = FleetBackend("fleet:localhost:2")
clients = [WorkerClient(slot.handle.url) for slot in backend._slots]
before = [client.stats()["store"] for client in clients]
[bundle] = backend.run([tasks.profile_bundle_job(setup, spec, [machine], key="bundle")])
after = [client.stats()["store"] for client in clients]
backend.close()
print(json.dumps({
    "before": before,
    "simulated_after": sum(store["simulated_profiles"] for store in after),
    "profile_matches": bundle.profiled[0].profile.to_dict() == warm.to_dict(),
    "reaped": [slot.handle.process.poll() is not None for slot in backend._slots],
}))
"""

#: Opens a pipe, forks two loopback workers, prints the pipe's write end
#: and the workers' pids, then waits to be killed.
ORPHANING_DRIVER = """
import os
import time

from repro.engine.remote.launch import launch_local_workers

_, write_end = os.pipe()
handles = launch_local_workers(2)
print(write_end, *(handle.process.pid for handle in handles), flush=True)
time.sleep(120)
"""


def _process_gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie nobody has reaped yet counts)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True
    except OSError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


#: A process that would outlive the test if the launcher leaked it.
SLEEPER = [sys.executable, "-c", "import time; time.sleep(60)"]


@pytest.fixture()
def started(monkeypatch):
    """Every process the launcher starts during the test."""
    processes = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            processes.append(self)

    monkeypatch.setattr(launch.subprocess, "Popen", RecordingPopen)
    yield processes
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait()


class TestLaunch:
    def test_local_workers_announce_distinct_reachable_urls(self):
        handles = launch_local_workers(2)
        try:
            urls = [handle.url for handle in handles]
            assert [handle.tag for handle in handles] == ["local-0", "local-1"]
            assert len(set(urls)) == 2
            for url in urls:
                with urllib.request.urlopen(f"{url}/healthz", timeout=10) as response:
                    assert response.status == 200
        finally:
            for handle in handles:
                handle.terminate()

    def test_exec_worker_entry_point_is_bit_identical_to_serial(
        self, serial, mixes, monkeypatch
    ):
        # Only ssh fleets exec `python -m repro.cli worker`; this keeps
        # that entry point driven end to end on this machine.
        monkeypatch.setenv("PYTHONPATH", _pythonpath())
        command = [sys.executable, "-m", "repro.cli", "worker", "--port", "0"]
        [handle] = launch._launch_workers([("exec-0", command)])
        try:
            assert isinstance(handle.process, subprocess.Popen)
            setup = fleet_setup(jobs=f"fleet:attach={handle.url[len('http://'):]}")
            try:
                machine = setup.machine(num_cores=2)
                ops = [("mppm:foa", mix, machine) for mix in mixes[:3]]
                pairs = [(mix, machine) for mix in mixes[:2]]
                predictions = setup.predictor_batch(ops)
                runs = [run.to_dict() for run in setup.simulate_batch(pairs)]
                assert setup.engine.backend.stats()["completed"] > 0
            finally:
                setup.close()
        finally:
            handle.terminate()
        assert handle.process.poll() is not None
        assert predictions == serial.predictor_batch(ops)
        assert runs == [run.to_dict() for run in serial.simulate_batch(pairs)]

    def test_forked_workers_start_clean(self, tmp_path):
        # A driver with a registered, warmed setup, a setup rebuilt from
        # a recipe (as a worker holds them) and text still buffered in
        # its stdout forks a worker. The text must be written once, the
        # worker's store counters must start at zero, and its first job
        # must rebuild the setup from the recipe instead of using the
        # inherited one.
        script = tmp_path / "driver.py"
        script.write_text(FORKING_DRIVER)
        completed = subprocess.run(
            [sys.executable, str(script)],
            env={
                **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                "PYTHONPATH": _pythonpath(),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        lines = completed.stdout.splitlines()
        assert lines.count("buffered before the fork") == 1
        report = json.loads(lines[-1])
        assert [set(store.values()) for store in report["before"]] == [{0}, {0}]
        assert report["simulated_after"] == 1
        assert report["profile_matches"]
        assert report["reaped"] == [True, True]

    def test_forked_workers_die_with_a_killed_driver(self, tmp_path):
        # A driver killed by SIGKILL never closes its backend: its forked
        # workers must notice and exit on their own. While they live,
        # they must not hold the driver's descriptors either.
        script = tmp_path / "driver.py"
        script.write_text(ORPHANING_DRIVER)
        driver = subprocess.Popen(
            [sys.executable, str(script)],
            env={**os.environ, "PYTHONPATH": _pythonpath()},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        pids = []
        try:
            fd, *pids = [int(word) for word in driver.stdout.readline().split()]
            assert len(pids) == 2
            if os.path.isdir(f"/proc/{driver.pid}/fd"):
                assert os.readlink(f"/proc/{driver.pid}/fd/{fd}").startswith("pipe:")
                for pid in pids:
                    assert os.readlink(f"/proc/{pid}/fd/{fd}") == os.devnull
            driver.kill()
            driver.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while not all(map(_process_gone, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(_process_gone, pids)), f"workers {pids} outlived their driver"
        finally:
            driver.stdout.close()
            if driver.poll() is None:
                driver.kill()
                driver.wait()
            for pid in pids:
                if not _process_gone(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_worker_exiting_before_announcing_fails_and_reaps_the_others(self, started):
        commands = [
            ("sleeper-0", SLEEPER),
            ("quitter-1", [sys.executable, "-c", "raise SystemExit(3)"]),
        ]
        began = time.monotonic()
        with pytest.raises(FleetError, match="quitter-1 exited with code 3"):
            launch._launch_workers(commands, startup_timeout=30.0)
        # The failure surfaces at once, not at the deadline.
        assert time.monotonic() - began < 20.0
        assert len(started) == 2
        assert all(process.poll() is not None for process in started)

    def test_silent_worker_fails_at_its_startup_timeout(self, started):
        began = time.monotonic()
        with pytest.raises(FleetError, match="silent-0 did not announce within 1s"):
            launch._launch_workers([("silent-0", SLEEPER)], startup_timeout=1.0)
        elapsed = time.monotonic() - began
        assert 1.0 <= elapsed < 10.0
        [process] = started
        assert process.poll() is not None

    def test_garbage_announce_is_a_structured_error(self, started):
        talker = [
            sys.executable,
            "-c",
            "print('hello', flush=True); import time; time.sleep(60)",
        ]
        with pytest.raises(FleetError, match="talker-0 announced garbage: 'hello'"):
            launch._launch_workers(
                [("talker-0", talker), ("sleeper-1", SLEEPER)], startup_timeout=30.0
            )
        assert all(process.poll() is not None for process in started)


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------


class _RogueHandler(BaseHTTPRequestHandler):
    """Answers health checks, then returns garbage to every /run."""

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        payload = json.dumps({"status": "ok"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        garbage = b"this is not json"
        self.send_response(200)
        self.send_header("Content-Length", str(len(garbage)))
        self.end_headers()
        self.wfile.write(garbage)

    def log_message(self, *args):  # silence
        pass


@pytest.fixture()
def rogue_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RogueHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


def _arith_jobs(count: int):
    return [
        Job(key=f"add-{index}", fn=operator.add, args=(index, 100)) for index in range(count)
    ]


class TestFleetFailures:
    def test_unreachable_endpoint_fails_fast_and_structured(self):
        # A port nothing listens on: startup must raise, not hang.
        started = time.monotonic()
        with pytest.raises(FleetError) as excinfo:
            FleetBackend("fleet:attach=127.0.0.1:9")
        assert time.monotonic() - started < 30
        assert "unreachable" in str(excinfo.value)

    def test_rogue_worker_is_retired_and_its_jobs_reassigned(self, rogue_server):
        [handle] = launch_local_workers(1)
        backend = None
        try:
            backend = FleetBackend(
                f"fleet:attach={rogue_server}+{handle.url[len('http://'):]}"
            )
            results = backend.run(_arith_jobs(6))
            assert results == [100, 101, 102, 103, 104, 105]
            stats = backend.stats()
            assert stats["alive"] == 1
            assert stats["failures"] >= 1
            rogue = stats["workers"][0]
            assert not rogue["alive"] and rogue["last_error"]
        finally:
            if backend is not None:
                backend.close()
            handle.terminate()

    def test_job_exception_propagates_and_fleet_survives(self):
        backend = FleetBackend("fleet:localhost:1")
        try:
            with pytest.raises(FleetJobError) as excinfo:
                backend.run(
                    [Job(key="boom", fn=operator.truediv, args=(1.0, 0.0))]
                )
            assert "ZeroDivisionError" in str(excinfo.value)
            # A deterministic job failure is not a worker failure: the
            # fleet stays usable for the next wave.
            assert backend.stats()["alive"] == 1
            assert backend.run(_arith_jobs(2)) == [100, 101]
        finally:
            backend.close()

    def test_unregistered_result_is_a_job_error_not_a_pickle(self):
        backend = FleetBackend("fleet:localhost:1")
        try:
            with pytest.raises(FleetJobError) as excinfo:
                backend.run([Job(key="odd", fn=complex, args=(1.0, 2.0))])
            assert "FleetProtocolError" in str(excinfo.value)
            assert "complex" in str(excinfo.value)
            assert backend.stats()["alive"] == 1
        finally:
            backend.close()

    def test_worker_killed_mid_wave_completes_on_survivor(self):
        setup = fleet_setup(jobs="fleet:localhost:2")
        try:
            backend = setup.engine.backend
            victim = backend._slots[0].handle.process
            # Fresh (uncached) simulations keep the wave busy long
            # enough for the kill to land mid-flight.
            machine = setup.machine(num_cores=2)
            pairs = [(mix, machine) for mix in setup.mixes(2, 6, seed=11)]
            timer = threading.Timer(0.05, victim.send_signal, args=(signal.SIGKILL,))
            timer.start()
            try:
                fleet_runs = [run.to_dict() for run in setup.simulate_batch(pairs)]
            finally:
                timer.cancel()
        finally:
            setup.close()
        reference = fleet_setup()
        try:
            machine = reference.machine(num_cores=2)
            pairs = [(mix, machine) for mix in reference.mixes(2, 6, seed=11)]
            serial_runs = [run.to_dict() for run in reference.simulate_batch(pairs)]
        finally:
            reference.close()
        assert fleet_runs == serial_runs


# ---------------------------------------------------------------------------
# Service: `repro serve --fleet`
# ---------------------------------------------------------------------------


class TestFleetService:
    WORKLOAD = "suite:spec29/scaled@5"
    MIX = ["gamess", "hmmer"]
    PREDICTORS = ("mppm:foa", "baseline:one-shot")

    def _serve(self, jobs):
        """Serve on this thread's event loop as `repro serve` does; returns the answers.

        The fleet (and with it every worker fork) is built inside the
        running loop, in the order :func:`repro.service.serve` uses.
        """
        config = ServiceConfig(workload=self.WORKLOAD, instructions=20_000, jobs=jobs)
        answers = {}
        processes = []

        async def ask(service):
            try:
                async with ServiceClient(config.host, service.port) as client:
                    for spec in self.PREDICTORS:
                        answers[spec] = await client.predict(mix=self.MIX, predictor=spec)
                backend = service.engine.backend
                if isinstance(backend, FleetBackend):
                    assert backend.stats()["completed"] > 0
                    processes.extend(slot.handle.process for slot in backend._slots)
            finally:
                service.shutdown_event.set()

        tasks = []

        def ready(service):
            tasks.append(asyncio.get_running_loop().create_task(ask(service)))

        asyncio.run(serve(config, printer=lambda line: None, ready=ready))
        [task] = tasks
        task.result()
        return answers, processes

    def test_fleet_service_is_bit_identical_to_serial_and_reaps_its_workers(self):
        fleet_answers, processes = self._serve("fleet:localhost:2")
        serial_answers, _ = self._serve(1)
        for spec in self.PREDICTORS:
            assert fleet_answers[spec]["prediction"] == serial_answers[spec]["prediction"]
        assert len(processes) == 2
        assert all(process.poll() is not None for process in processes)

    def test_idle_fleet_service_reaps_its_workers(self):
        # No preload and no request: no setup is ever built, but closing
        # the service must still stop the fleet.
        processes = []

        def ready(service):
            processes.extend(slot.handle.process for slot in service.engine.backend._slots)
            service.shutdown_event.set()

        config = ServiceConfig(jobs="fleet:localhost:2", preload=False)
        asyncio.run(serve(config, printer=lambda line: None, ready=ready))
        assert len(processes) == 2
        assert all(process.poll() is not None for process in processes)


# ---------------------------------------------------------------------------
# CLI: the stress experiment, serial vs fleet
# ---------------------------------------------------------------------------


class TestFleetCLI:
    @staticmethod
    def _strip_timing(output: str) -> str:
        return "\n".join(
            line for line in output.splitlines() if "finished in" not in line
        )

    def test_stress_run_is_bit_identical_to_serial(self, capsys):
        from repro.cli import main

        base = [
            "run",
            "--experiment",
            "stress",
            "--benchmarks",
            "5",
            "--instructions",
            "20000",
            "--scale",
            "16",
            "--mixes",
            "4",
            "--model",
            "mppm:foa",
        ]
        assert main([*base, "--jobs", "1"]) == 0
        serial_out = self._strip_timing(capsys.readouterr().out)
        assert main([*base, "--fleet", "localhost:2"]) == 0
        fleet_out = self._strip_timing(capsys.readouterr().out)
        assert fleet_out == serial_out
