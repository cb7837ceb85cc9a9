"""Tests for the prediction service (HTTP layer, batching, endpoints).

A single live service (on a background thread, ephemeral port) is
shared module-wide; individual tests talk to it with the stdlib asyncio
client and assert on the service's own stats/caches where the wire
format can't show the behaviour (dedup, zero-recompute warm serving).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

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
from repro.service.batching import PredictionBatcher, PredictOp
from repro.service.http import HttpError, Request
from repro.service.payloads import models_payload, prediction_payload, workloads_payload
from repro.workloads import WorkloadMix, make_workload

#: Small workload + short traces keep the whole module fast; the window
#: is generous so concurrent submissions reliably share one batch.
WORKLOAD = "suite:spec29/scaled@5"
CONFIG = ServiceConfig(workload=WORKLOAD, instructions=20_000, window=0.02)

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
        assert payload["preloaded_profiles"] == len(NAMES)
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

    def test_concurrent_identical_requests_share_one_computation(self, live):
        mix = [NAMES[2], NAMES[4]]
        stats = live.service.stats
        deduped_before = stats.inflight_deduped
        computed_before = stats.predictions_computed

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

    def test_concurrent_distinct_requests_coalesce_into_one_batch(self, live):
        stats = live.service.stats
        batches_before = stats.batches
        rows = [[NAMES[i], NAMES[(i + 1) % len(NAMES)]] for i in range(3)]

        async def storm():
            clients = [ServiceClient(live.host, live.port) for _ in range(3)]
            try:
                for client in clients:
                    await client.connect()
                return await asyncio.gather(
                    *(
                        c.predict(mix=row, predictor="baseline:no-contention")
                        for c, row in zip(clients, rows)
                    )
                )
            finally:
                for client in clients:
                    await client.close()

        asyncio.run(storm())
        new_batches = stats.batches - batches_before
        # Three concurrent submissions within one 20ms window: fewer
        # batches than requests (usually exactly one).
        assert 1 <= new_batches < 3

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
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = PredictionBatcher(runner, executor, window=0.02)
                return await asyncio.gather(
                    batcher.submit(PredictOp(setup, "mppm:foa", mix, machine)),
                    batcher.submit(PredictOp(setup, "mppm:foa", mix, renamed)),
                ), batcher.stats.inflight_deduped

        (first, second), deduped = asyncio.run(main())
        assert calls == [1] and deduped == 1
        assert (first.machine_name, second.machine_name) == ("first", "second")
        assert first.programs == second.programs


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
