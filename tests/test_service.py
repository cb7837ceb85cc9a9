"""Tests for the prediction service (HTTP layer, batching, endpoints).

A single live service (on a background thread, ephemeral port) is
shared module-wide; individual tests talk to it with the stdlib asyncio
client and assert on the service's own stats/caches where the wire
format can't show the behaviour (dedup, zero-recompute warm serving).
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import logging
import threading
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.machine import MachineConfig
from repro.core.result import MixPrediction, ProgramPrediction
from repro.experiments import ExperimentSetup
from repro.predictors import available_predictors
from repro.service import (
    LatencyTracker,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceStats,
    ServiceThread,
)
from repro.service.batching import BatcherClosed, PredictionBatcher, PredictOp
from repro.service.http import HttpError, HttpServer, Request
from repro.service.payloads import models_payload, prediction_payload, workloads_payload
from repro.workloads import WorkloadMix, make_workload

#: Small workload + short traces keep the whole module fast.
WORKLOAD = "suite:spec29/scaled@5"
CONFIG = ServiceConfig(workload=WORKLOAD, instructions=20_000)

NAMES = make_workload(WORKLOAD).suite().names


@pytest.fixture(scope="module")
def live():
    with ServiceThread(CONFIG) as thread:
        yield thread


def call(live, coro_factory):
    """Run one async client interaction against the live service."""

    async def main():
        async with ServiceClient(live.host, live.port) as client:
            return await coro_factory(client)

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# HTTP plumbing (no live server needed)
# ---------------------------------------------------------------------------


class TestRequestParsing:
    def test_json_rejects_empty_body(self):
        with pytest.raises(HttpError) as excinfo:
            Request(method="POST", path="/predict").json()
        assert excinfo.value.status == 400

    def test_json_rejects_malformed_body(self):
        request = Request(method="POST", path="/predict", body=b"{not json")
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400
        assert "malformed JSON" in excinfo.value.message

    def test_json_rejects_non_object_body(self):
        request = Request(method="POST", path="/predict", body=b"[1, 2]")
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert "JSON object" in excinfo.value.message


class TestLatencyTracker:
    def test_percentiles_are_nearest_rank(self):
        tracker = LatencyTracker()
        for ms in range(1, 101):  # 1ms .. 100ms
            tracker.record(ms / 1000.0)
        summary = tracker.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.0)
        assert summary["p95"] == pytest.approx(95.0)
        assert summary["p99"] == pytest.approx(99.0)

    def test_empty_tracker_reports_zeros(self):
        assert LatencyTracker().summary() == {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }


class TestServiceStats:
    def test_per_predictor_batches_accumulate(self):
        stats = ServiceStats()
        assert stats.snapshot()["predictors"] == {}
        stats.record_predictor_batch("mppm:foa", size=3, seconds=0.25)
        stats.record_predictor_batch("mppm:foa", size=1, seconds=0.05)
        stats.record_predictor_batch("baseline:one-shot", size=2, seconds=0.01)
        predictors = stats.snapshot()["predictors"]
        assert list(predictors) == ["baseline:one-shot", "mppm:foa"]  # sorted
        entry = predictors["mppm:foa"]
        assert entry["batches"] == 2
        assert entry["items"] == 4
        assert entry["max_size"] == 3
        assert entry["mean_size"] == 2.0
        assert entry["solve_time_ms"] == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# Introspection endpoints
# ---------------------------------------------------------------------------


class TestIntrospection:
    def test_healthz_reports_preload(self, live):
        payload = call(live, lambda c: c.healthz())
        assert payload["status"] == "ok"
        assert payload["preloaded_profiles"] == 6 * len(NAMES)  # every Table 2 LLC
        assert payload["uptime_seconds"] > 0

    def test_index_lists_endpoints(self, live):
        status, payload = call(live, lambda c: c.request("GET", "/"))
        assert status == 200
        assert "POST /predict" in payload["endpoints"]

    def test_models_matches_the_registry_payload(self, live):
        assert call(live, lambda c: c.models()) == models_payload()

    def test_workloads_matches_the_registry_payload(self, live):
        assert call(live, lambda c: c.workloads()) == workloads_payload()

    def test_stats_counts_requests_and_exposes_engine_cache(self, live):
        call(live, lambda c: c.healthz())
        payload = call(live, lambda c: c.stats())
        assert payload["requests"]["GET /healthz"] >= 1
        assert set(payload["engine_cache"]) == {"entries", "hits", "misses", "stores", "loaded"}
        assert payload["config"]["workload"] == WORKLOAD

    def test_unknown_path_is_404(self, live):
        status, payload = call(live, lambda c: c.request("GET", "/nope"))
        assert status == 404 and "unknown path" in payload["error"]

    def test_wrong_method_is_405(self, live):
        status, _ = call(live, lambda c: c.request("GET", "/predict"))
        assert status == 405
        status, _ = call(live, lambda c: c.request("POST", "/models"))
        assert status == 405


# ---------------------------------------------------------------------------
# /predict: correctness
# ---------------------------------------------------------------------------


def reference_setup() -> ExperimentSetup:
    return ExperimentSetup(config=CONFIG.experiment_config(), workload=WORKLOAD)


class TestPredict:
    def test_every_predictor_spec_round_trips(self, live):
        """Each registry spec serves a structurally complete prediction."""
        mix = NAMES[:2]

        async def run_all(client):
            return {
                spec: await client.predict(mix=mix, predictor=spec)
                for spec in available_predictors()
            }

        responses = call(live, run_all)
        for spec, response in responses.items():
            assert response["predictor"] == spec or spec == "mppm"
            prediction = response["prediction"]
            assert prediction["stp"] > 0
            assert prediction["antt"] >= 1.0 or spec == "baseline:no-contention"
            assert len(prediction["programs"]) == len(mix)

    def test_served_prediction_is_bit_identical_to_the_batch_path(self, live):
        """The service is a transport: same specs, same bits as `repro predict`."""
        mix = [NAMES[0], NAMES[2], NAMES[3], NAMES[1]]
        setup = reference_setup()
        try:
            for spec in ("mppm:foa", "baseline:one-shot", "detailed"):
                served = call(
                    live, lambda c, s=spec: c.predict(mix=mix, predictor=s, machine=3)
                )
                machine = setup.machine(num_cores=len(mix), llc_config=3)
                expected = setup.predict(
                    WorkloadMix(programs=tuple(mix)), machine, predictor=spec
                )
                # Through JSON and back: repr round-trip of floats is exact.
                assert served["prediction"] == json.loads(
                    json.dumps(prediction_payload(expected))
                )
        finally:
            setup.close()

    def test_mixes_field_serves_a_batch_in_order(self, live):
        rows = [[NAMES[0], NAMES[1]], [NAMES[2], NAMES[3], NAMES[4]]]
        response = call(live, lambda c: c.predict(mixes=rows))
        assert response["count"] == 2
        assert "prediction" not in response  # batch responses have no single alias
        assert response["machine"]["cores"] == [2, 3]
        # Mixes echo in sorted (canonical) program order.
        assert response["mixes"] == [sorted(row) for row in rows]

    def test_sample_field_matches_the_workload_api(self, live):
        response = call(
            live,
            lambda c: c.predict(sample={"programs": 2, "count": 3, "seed": 9}),
        )
        setup = reference_setup()
        try:
            expected = setup.mixes(2, 3, seed=9)
        finally:
            setup.close()
        assert response["mixes"] == [list(mix.programs) for mix in expected]

    def test_sample_with_category_uses_current_practice_sampling(self, live):
        response = call(
            live,
            lambda c: c.predict(
                sample={"programs": 2, "count": 2, "seed": 5, "category": "MEM"}
            ),
        )
        setup = reference_setup()
        try:
            expected = setup.mixes(2, 2, seed=5, category="MEM")
            classes = setup.classification()
            for row in response["mixes"]:
                for name in row:
                    assert classes[name].value == "MEM"
        finally:
            setup.close()
        assert response["mixes"] == [list(mix.programs) for mix in expected]

    def test_other_workloads_are_served_lazily(self, live):
        response = call(
            live,
            lambda c: c.predict(
                mix=["svc-auth", "svc-kvcache"], workload="service:n=4,seed=0"
            ),
        )
        assert response["workload"] == "service:n=4,seed=0"
        assert response["prediction"]["stp"] > 0


# ---------------------------------------------------------------------------
# /predict: structured failures
# ---------------------------------------------------------------------------


class TestPredictErrors:
    def expect_400(self, live, payload, *needles):
        status, body = call(live, lambda c: c.request("POST", "/predict", payload))
        assert status == 400, body
        for needle in needles:
            assert needle in body["error"], body["error"]

    def test_unknown_predictor_carries_the_registry_text(self, live):
        self.expect_400(
            live,
            {"mix": NAMES[:2], "predictor": "oracle"},
            "unknown predictor spec",
            "available predictors",
        )

    def test_unknown_workload_carries_the_registry_text(self, live):
        self.expect_400(
            live, {"mix": NAMES[:2], "workload": "oracle"}, "suite:spec29"
        )

    def test_unknown_benchmark_lists_the_valid_names(self, live):
        self.expect_400(
            live, {"mix": ["quake", NAMES[0]]}, "unknown benchmark", NAMES[0]
        )

    def test_exactly_one_mix_source_is_required(self, live):
        self.expect_400(live, {}, "exactly one of")
        self.expect_400(
            live, {"mix": NAMES[:2], "sample": {"programs": 2}}, "exactly one of"
        )

    def test_unknown_top_level_field_is_rejected(self, live):
        self.expect_400(live, {"mix": NAMES[:2], "cores": 4}, "unknown field")

    def test_bad_machine_specs_are_rejected(self, live):
        self.expect_400(live, {"mix": NAMES[:2], "machine": "turbo"}, "unknown machine spec")
        self.expect_400(live, {"mix": NAMES[:2], "machine": 9}, "unknown LLC configuration")
        self.expect_400(
            live,
            {"mix": NAMES[:2], "machine": {"llc_config": 1, "cores": 4}},
            "must match the mix size",
        )

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"machine": {"llc_config": 2.7}}, "machine.llc_config"),
            ({"machine": {"llc_config": True}}, "machine.llc_config"),
            ({"machine": {"llc_config": "2"}}, "machine.llc_config"),
            ({"machine": {"llc_config": 1, "cores": 2.9}}, "machine.cores"),
            ({"machine": {"llc_config": 1, "cores": False}}, "machine.cores"),
            ({"sample": {"programs": 2.9}}, "sample.programs"),
            ({"sample": {"programs": 2, "count": 1.5}}, "sample.count"),
            ({"sample": {"programs": 2, "seed": True}}, "sample.seed"),
        ],
    )
    def test_fractional_and_boolean_integers_are_rejected(self, live, extra, field):
        # int() used to truncate these silently (2.7 -> LLC #2, true -> 1).
        payload = {"mix": NAMES[:2], **extra} if "machine" in extra else extra
        self.expect_400(live, payload, f"'{field}' must be an integer")

    def test_bad_category_carries_the_valid_choices(self, live):
        self.expect_400(
            live,
            {"sample": {"programs": 2, "count": 1, "category": "IO"}},
            "valid categories",
        )


# ---------------------------------------------------------------------------
# perf: workloads over the wire
# ---------------------------------------------------------------------------


class TestPerfWorkloads:
    """Fitted-trace workloads served like any other registry family."""

    @pytest.fixture(scope="class")
    def perf_spec(self, tmp_path_factory):
        from pathlib import Path

        from repro.ingest import write_bundle
        from repro.ingest.workload import ingest_to_bundle

        fixture = Path(__file__).parent / "data" / "perf_ingest_samples.csv"
        workload, _ = ingest_to_bundle(fixture)
        out = tmp_path_factory.mktemp("svc-perf") / "bundle"
        write_bundle(workload, out)
        return f"perf:{out}"

    def test_perf_workload_is_served(self, live, perf_spec):
        response = call(
            live,
            lambda c: c.predict(mix=["pmu-c0", "pmu-c1"], workload=perf_spec),
        )
        # The echoed workload is the canonical, digest-qualified spec.
        assert response["workload"].startswith(perf_spec + ",digest=")
        assert response["prediction"]["stp"] > 0
        assert [p["name"] for p in response["prediction"]["programs"]] == [
            "pmu-c0",
            "pmu-c1",
        ]

    def test_served_perf_prediction_matches_the_batch_path(self, live, perf_spec):
        served = call(
            live, lambda c: c.predict(mix=["pmu-c0", "pmu-c1"], workload=perf_spec)
        )
        setup = ExperimentSetup(config=CONFIG.experiment_config(), workload=perf_spec)
        try:
            machine = setup.machine(num_cores=2)
            expected = setup.predict(
                WorkloadMix(programs=("pmu-c0", "pmu-c1")), machine
            )
        finally:
            setup.close()
        assert served["prediction"] == json.loads(
            json.dumps(prediction_payload(expected))
        )

    def test_malformed_perf_samples_are_a_400(self, live, tmp_path):
        from pathlib import Path

        bad = tmp_path / "bad.csv"
        bad.write_text("core,timestamp\n0,1.0\n")
        machine_json = (
            Path(__file__).parent / "data" / "perf_ingest_samples.machine.json"
        )
        (tmp_path / "machine.json").write_text(machine_json.read_text())
        status, body = call(
            live,
            lambda c: c.request(
                "POST", "/predict", {"mix": ["pmu-c0"], "workload": f"perf:{bad}"}
            ),
        )
        assert status == 400, body
        assert "missing" in body["error"]

    def test_stale_digest_is_a_400(self, live, perf_spec):
        status, body = call(
            live,
            lambda c: c.request(
                "POST",
                "/predict",
                {"mix": ["pmu-c0"], "workload": f"{perf_spec},digest=000000000000"},
            ),
        )
        assert status == 400, body
        assert "changed on disk" in body["error"]

    def test_workloads_payload_lists_the_perf_family(self, live):
        payload = call(live, lambda c: c.workloads())
        assert any(row["spec"].startswith("perf:") for row in payload["workloads"])

    def test_malformed_json_body_is_a_structured_400(self, live):
        async def post_garbage(client):
            return await client.request("POST", "/predict", payload=None)

        # An empty body is the simplest malformed case the client can send.
        status, body = call(live, post_garbage)
        assert status == 400 and "JSON object" in body["error"]

    def test_client_error_carries_status_and_payload(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            call(live, lambda c: c.predict(mix=["quake"]))
        assert excinfo.value.status == 400
        assert "unknown benchmark" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Batching, dedup and memoisation
# ---------------------------------------------------------------------------


class TestBatchingAndCaching:
    def test_warm_requests_recompute_nothing(self, live):
        mix = [NAMES[1], NAMES[3]]
        call(live, lambda c: c.predict(mix=mix, predictor="mppm:sdc"))
        computed_before = live.service.stats.predictions_computed
        hits_before = live.service.engine.cache_stats()["hits"]
        repeat = call(live, lambda c: c.predict(mix=mix, predictor="mppm:sdc"))
        assert live.service.stats.predictions_computed == computed_before
        assert live.service.engine.cache_stats()["hits"] > hits_before
        assert repeat["prediction"]["stp"] > 0

    def test_concurrent_identical_requests_share_one_computation(self, live, monkeypatch):
        mix = [NAMES[2], NAMES[4]]
        stats = live.service.stats
        deduped_before = stats.inflight_deduped
        computed_before = stats.predictions_computed
        batcher = live.service.batcher
        drain = batcher._drain

        async def drain_once_all_four_are_in():
            # The first submission starts the drain; hold it until the
            # other three have joined that computation (or a deadline
            # passes, and the assertions below report what happened).
            for _ in range(2000):
                if stats.inflight_deduped >= deduped_before + 3:
                    break
                await asyncio.sleep(0.005)
            await drain()

        monkeypatch.setattr(batcher, "_drain", drain_once_all_four_are_in)

        async def storm():
            clients = [ServiceClient(live.host, live.port) for _ in range(4)]
            try:
                for client in clients:
                    await client.connect()
                return await asyncio.gather(
                    *(c.predict(mix=mix, predictor="mppm:prob") for c in clients)
                )
            finally:
                for client in clients:
                    await client.close()

        responses = asyncio.run(storm())
        first = responses[0]["prediction"]
        assert all(response["prediction"] == first for response in responses)
        assert stats.inflight_deduped > deduped_before
        # All four concurrent requests cost at most one computed prediction.
        assert stats.predictions_computed <= computed_before + 1

    def test_stats_served_counter_tracks_predictions(self, live):
        served_before = live.service.stats.predictions_served
        call(live, lambda c: c.predict(mixes=[NAMES[:2], NAMES[1:3]]))
        assert live.service.stats.predictions_served == served_before + 2

    def test_stats_report_per_predictor_solve_batches(self, live):
        mixes = [[NAMES[0], NAMES[4]], [NAMES[1], NAMES[4]], [NAMES[3], NAMES[4]]]
        response = call(live, lambda c: c.predict(mixes=mixes, predictor="mppm:foa"))
        # Served predictions carry the solver kernel as provenance.
        assert all(
            prediction["kernel"] == "batched" for prediction in response["predictions"]
        )
        payload = call(live, lambda c: c.stats())
        entry = payload["predictors"]["mppm:foa"]
        assert entry["batches"] >= 1
        assert entry["items"] >= len(mixes)
        assert entry["max_size"] >= 1
        assert entry["mean_size"] > 0
        assert entry["solve_time_ms"] >= 0

    def test_batches_run_on_the_event_loop_thread(self, live, monkeypatch):
        threads = []
        run_batch = live.service.batcher._runner

        def recording(ops):
            threads.append(threading.get_ident())
            return run_batch(ops)

        monkeypatch.setattr(live.service.batcher, "_runner", recording)
        call(live, lambda c: c.predict(mix=[NAMES[0], NAMES[3]], predictor="mppm:prob"))
        # The engine is entered only from the thread serving the loop.
        assert threads == [live._thread.ident]


class TestInflightDedupMachineNames:
    """In-flight dedup keys leave out the machine's name (as the engine's
    cache keys do), so a request that joins another's computation must
    still be answered under its own machine's name."""

    def test_renamed_machines_share_work_but_keep_their_names(self):
        calls = []

        def runner(ops):
            calls.append(len(ops))
            return [
                MixPrediction(
                    machine_name=op.machine.name,
                    programs=(ProgramPrediction("a", 0, 1.0, 1.5),),
                    iterations=1,
                    converged=True,
                )
                for op in ops
            ]

        setup = types.SimpleNamespace(workload_spec="suite:spec29/scaled@5")
        machine = MachineConfig(num_cores=2, name="first")
        renamed = dataclasses.replace(machine, name="second")
        mix = WorkloadMix(programs=("a", "b"))

        async def main():
            batcher = PredictionBatcher(runner)
            return await asyncio.gather(
                batcher.submit(PredictOp(setup, "mppm:foa", mix, machine)),
                batcher.submit(PredictOp(setup, "mppm:foa", mix, renamed)),
            ), batcher.stats.inflight_deduped

        (first, second), deduped = asyncio.run(main())
        assert calls == [1] and deduped == 1
        assert (first.machine_name, second.machine_name) == ("first", "second")
        assert first.programs == second.programs


class _RecordingRunner:
    """A batch runner that records each batch's size.

    ``in_first_batch``, if set, is called inside the first batch, i.e.
    while that batch holds the event loop.
    """

    def __init__(self):
        self.calls = []
        self.in_first_batch = None

    def __call__(self, ops):
        self.calls.append(len(ops))
        if len(self.calls) == 1 and self.in_first_batch is not None:
            self.in_first_batch()
        return [
            MixPrediction(
                machine_name=op.machine.name,
                programs=(ProgramPrediction(op.mix.programs[0], 0, 1.0, 1.5),),
                iterations=1,
                converged=True,
            )
            for op in ops
        ]


def _ops(count):
    """``count`` ops with distinct dedup keys."""
    setup = types.SimpleNamespace(workload_spec="suite:spec29/scaled@5")
    machine = MachineConfig(num_cores=2)
    return [
        PredictOp(setup, "mppm:foa", WorkloadMix(programs=(f"p{index}", "q")), machine)
        for index in range(count)
    ]


async def _turns(count):
    """Let the event loop run ``count`` turns without advancing any timer."""
    for _ in range(count):
        await asyncio.sleep(0)


class TestBatcherFlushesWhenIdle:
    """The batcher has no timer: an idle batcher runs a submission on the
    next loop turn, and work arriving during a batch forms the next one.
    The runner is called on the event loop, so work "arriving during a
    batch" is work the runner itself schedules."""

    @staticmethod
    def run(main):
        runner = _RecordingRunner()

        async def wrapped():
            # A waiter the batcher never answers fails, not hangs.
            return await asyncio.wait_for(main(runner), timeout=60)

        return runner, asyncio.run(wrapped())

    def test_idle_batcher_enters_the_runner_without_a_timer(self):
        async def main(runner):
            batcher = PredictionBatcher(runner)
            (op,) = _ops(1)
            task = asyncio.ensure_future(batcher.submit(op))
            # Zero-length loop turns suffice; no timer has to expire.
            await _turns(3)
            assert runner.calls == [1] and batcher.stats.batches == 1
            return await task

        runner, prediction = self.run(main)
        assert prediction.programs[0].name == "p0"

    def test_submissions_during_a_batch_form_exactly_one_next_batch(self):
        async def main(runner):
            batcher = PredictionBatcher(runner)
            first, *rest = _ops(6)
            tail = []
            runner.in_first_batch = lambda: tail.extend(
                asyncio.ensure_future(batcher.submit(op)) for op in rest
            )
            head = await batcher.submit(first)
            return [head, *await asyncio.gather(*tail)]

        runner, predictions = self.run(main)
        assert runner.calls == [1, 5]
        assert [p.programs[0].name for p in predictions] == [f"p{i}" for i in range(6)]

    def test_submissions_of_one_tick_form_one_batch(self):
        async def main(runner):
            batcher = PredictionBatcher(runner)
            return await asyncio.gather(*(batcher.submit(op) for op in _ops(4)))

        runner, predictions = self.run(main)
        assert runner.calls == [4]
        assert len(predictions) == 4

    def test_more_than_max_batch_runs_back_to_back(self):
        async def main(runner):
            batcher = PredictionBatcher(runner, max_batch=3)
            return await asyncio.gather(*(batcher.submit(op) for op in _ops(7)))

        runner, predictions = self.run(main)
        assert runner.calls == [3, 3, 1]
        assert [p.programs[0].name for p in predictions] == [f"p{i}" for i in range(7)]

    def test_close_fails_queued_ops(self):
        async def main(runner):
            batcher = PredictionBatcher(runner)
            first, *queued = _ops(3)
            waiting, closing = [], []

            def queue_then_close():
                # Runs inside the first batch: these ops queue behind it,
                # then the service shuts down before they run.
                waiting.extend(asyncio.ensure_future(batcher.submit(op)) for op in queued)
                closing.append(asyncio.ensure_future(batcher.close()))

            runner.in_first_batch = queue_then_close
            answered = await batcher.submit(first)
            await closing[0]
            with pytest.raises(BatcherClosed):
                await batcher.submit(first)
            return answered, await asyncio.gather(*waiting, return_exceptions=True)

        runner, (answered, failed) = self.run(main)
        # The running batch finishes; the queued ops never reach the runner.
        assert runner.calls == [1]
        assert answered.programs[0].name == "p0"
        assert len(failed) == 2
        assert all(isinstance(error, BatcherClosed) for error in failed)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_shutdown_endpoint_stops_the_service(self):
        config = ServiceConfig(workload=WORKLOAD, instructions=20_000, preload=False)
        thread = ServiceThread(config).start()
        payload = call(thread, lambda c: c.shutdown())
        assert payload["status"] == "shutting down"
        thread._thread.join(timeout=10)
        assert not thread._thread.is_alive()

    def test_shutdown_with_an_idle_keep_alive_client_logs_nothing(self, caplog):
        config = ServiceConfig(workload=WORKLOAD, instructions=20_000, preload=False)
        thread = ServiceThread(config).start()
        idle = http.client.HTTPConnection(thread.host, thread.port, timeout=10)
        try:
            idle.request("GET", "/healthz")
            assert json.loads(idle.getresponse().read())["status"] == "ok"
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                payload = call(thread, lambda c: c.shutdown())
                thread._thread.join(timeout=10)
        finally:
            idle.close()
        assert payload["status"] == "shutting down"
        assert not thread._thread.is_alive()
        assert [record for record in caplog.records if record.levelno >= logging.WARNING] == []

    def test_no_preload_starts_with_an_empty_store(self):
        config = ServiceConfig(workload=WORKLOAD, instructions=20_000, preload=False)
        with ServiceThread(config) as thread:
            health = call(thread, lambda c: c.healthz())
            assert health["preloaded_profiles"] == 0
            # First prediction profiles on demand and still succeeds.
            response = call(thread, lambda c: c.predict(mix=NAMES[:2]))
            assert response["prediction"]["stp"] > 0


# ---------------------------------------------------------------------------
# Raw HTTP framing
# ---------------------------------------------------------------------------


class TestContentLengthFraming:
    """RFC 9110 allows only ASCII digits in Content-Length; bare int()
    also accepted signs and underscores, which clients and
    intermediaries interpret inconsistently (request-smuggling bait)."""

    @staticmethod
    def raw_exchange(live, content_length):
        async def send():
            reader, writer = await asyncio.open_connection(live.host, live.port)
            request = (
                "POST /predict HTTP/1.1\r\n"
                f"Content-Length: {content_length}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(request.encode("latin-1"))
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        return asyncio.run(send())

    @pytest.mark.parametrize("value", ["+5", "-1", "1_0", "0x10", "5.0", ""])
    def test_malformed_content_length_is_a_structured_400(self, live, value):
        raw = self.raw_exchange(live, value)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert b"malformed Content-Length header" in body

    def test_plain_digits_still_reach_the_json_parser(self, live):
        # "2" is well-formed framing; the 400 must now come from the
        # JSON layer (body "{}", wrong shape), not the framing layer.
        async def send():
            reader, writer = await asyncio.open_connection(live.host, live.port)
            writer.write(
                b"POST /predict HTTP/1.1\r\n"
                b"Content-Length: 2\r\n"
                b"Connection: close\r\n"
                b"\r\n"
                b"{}"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw = asyncio.run(send())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert b"malformed Content-Length" not in body


#: Fragments of well- and ill-formed requests, so generated inputs
#: reach past the request line often.
_TARGET_STARTS = [b"/", b"//", b"http://", b"*"]
_TARGET_PIECES = [b"/", b"predict", b"[", b"]", b"::1", b":80", b"?", b"a=1&b", b"%zz", b"#"]
_HEADER_PIECES = [b"Content-Length: ", b"Connection: close", b"Host", b":", b" ", b"3", b"-1"]


def _joined(pieces, max_size):
    return st.lists(
        st.one_of(st.sampled_from(pieces), st.binary(max_size=6)), max_size=max_size
    ).map(b"".join)


_REQUESTS = st.tuples(
    st.tuples(
        st.sampled_from([b"GET", b"POST", b"get"]),
        st.tuples(st.sampled_from(_TARGET_STARTS), _joined(_TARGET_PIECES, 4)).map(b"".join),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"http/9"]),
    ).map(lambda parts: b" ".join(parts) + b"\r\n"),
    st.lists(_joined(_HEADER_PIECES, 4).map(lambda line: line + b"\r\n"), max_size=4),
    st.sampled_from([b"", b"\r\n", b"\n"]),
    st.binary(max_size=8),
).map(lambda parts: parts[0] + b"".join(parts[1]) + parts[2] + parts[3])


def raw_exchange(live, request):
    """Send raw request bytes to the live service; return the raw reply."""

    async def send():
        reader, writer = await asyncio.open_connection(live.host, live.port)
        writer.write(request)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        return raw

    return asyncio.run(send())


class TestOverlongLines:
    """A request or header line beyond the stream limit (64 KiB) is a
    structured 400, and the server keeps serving."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_overlong_line_is_a_structured_400(self, live, request_bytes):
        raw = raw_exchange(live, request_bytes)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert "too long" in json.loads(body)["error"]
        assert call(live, lambda c: c.healthz())["status"] == "ok"


class TestRequestFraming:
    """Whatever bytes arrive, the request reader parses a request, sees
    the connection end, or raises a structured error: nothing else
    escapes to the connection callback."""

    def test_malformed_target_is_a_structured_400(self, live):
        raw = raw_exchange(live, b"GET http://[ HTTP/1.1\r\nConnection: close\r\n\r\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert json.loads(body)["error"] == "malformed request target"
        assert call(live, lambda c: c.healthz())["status"] == "ok"

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(_REQUESTS, st.binary(max_size=64)), limit=st.sampled_from([32, 2**16]))
    def test_arbitrary_bytes_parse_or_fail_structurally(self, data, limit):
        async def read():
            # A small stream limit also reaches the over-long-line path.
            reader = asyncio.StreamReader(limit=limit)
            reader.feed_data(data)
            reader.feed_eof()
            return await HttpServer(None)._read_request(reader)

        try:
            request = asyncio.run(read())
        except (HttpError, asyncio.IncompleteReadError):
            return
        assert request is None or isinstance(request, Request)
