"""Tests for the prediction service's start-up profiling.

:meth:`PredictionService.start` profiles the configured workload on all
six Table 2 LLCs through the setup's one profile step on a process pool
it borrows over every local CPU, and closes that pool before it listens.  These tests start
services on the main thread (``asyncio.run``), outside any live
:class:`ServiceThread`: an extra thread alive would make the start-up
profile in process instead, which one test checks on purpose.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.engine import ProcessPoolBackend
from repro.service import PredictionService, ServiceConfig
from repro.service import app as service_app
from repro.service.http import Request

WORKLOAD = "suite:spec29/scaled@5"
#: Table 2 has six LLC configurations; start-up profiles each benchmark on all.
LLCS = 6


def _started(**overrides) -> PredictionService:
    """A service started (profiles resident) and closed again, on this thread."""
    service = PredictionService(ServiceConfig(workload=WORKLOAD, instructions=20_000, **overrides))

    async def cycle():
        await service.start()
        await service.close()

    asyncio.run(cycle())
    return service


def _store(service: PredictionService):
    (setup,) = service._setups.values()
    return setup, setup.store


@pytest.fixture
def pools(monkeypatch):
    """Every process pool the start-up builds, in build order."""
    built = []

    class Recording(ProcessPoolBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(service_app, "ProcessPoolBackend", Recording)
    return built


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_a_pooled_start_up_absorbs_every_profile_and_leaves_nothing_running(pools, two_cpus):
    threads = threading.active_count()
    assert threads == 1, "a pooled start-up needs a single-threaded process"
    service = PredictionService(ServiceConfig(workload=WORKLOAD, instructions=20_000))

    async def start_and_look():
        await service.start()
        alive = (threading.active_count(), multiprocessing.active_children())
        await service.close()
        return alive

    assert asyncio.run(start_and_look()) == (threads, [])
    assert len(pools) == 1 and pools[0].jobs == 2
    setup, store = _store(service)
    assert store.generated_traces == 0 and store.simulated_profiles == 0
    assert store.absorbed_profiles == LLCS * len(setup.suite) == service.preloaded_profiles


def test_after_a_pooled_start_up_no_llc_profiles_on_a_request(pools, two_cpus):
    service = PredictionService(ServiceConfig(workload=WORKLOAD, instructions=20_000))

    async def start_and_predict():
        await service.start()
        try:
            names = next(iter(service._setups.values())).benchmark_names
            for llc in range(1, LLCS + 1):
                body = {"mixes": [names[:2], names[1:5]], "machine": llc}
                request = Request("POST", "/predict", body=json.dumps(body).encode())
                assert (await service.handle(request)).payload["count"] == 2
        finally:
            await service.close()

    asyncio.run(start_and_predict())
    assert len(pools) == 1
    setup, store = _store(service)
    assert store.simulated_profiles == 0 and store.generated_traces == 0
    assert store.cached_pairs() == LLCS * len(setup.suite)


def test_pooled_and_inline_start_ups_serve_identical_profiles(pools, two_cpus, monkeypatch):
    pooled_setup, pooled = _store(_started())
    assert len(pools) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline_setup, inline = _store(_started())
    assert len(pools) == 1
    assert inline.generated_traces == len(inline_setup.suite) and inline.absorbed_profiles == 0
    for spec in pooled_setup.suite:
        for machine in pooled_setup.design_space():
            ours, theirs = pooled.get(spec, machine), inline.get(spec, machine)
            assert ours.profile.to_dict() == theirs.profile.to_dict()
            for name in ("line", "insn", "upstream_cycle_gap"):
                left, right = getattr(ours.llc_trace, name), getattr(theirs.llc_trace, name)
                assert np.array_equal(left, right)
            assert ours.llc_trace.isolated_cycles == theirs.llc_trace.isolated_cycles
            assert ours.llc_trace.tail_cycles == theirs.llc_trace.tail_cycles
    assert pooled.simulated_profiles == 0 and pooled.generated_traces == 0
    assert inline.simulated_profiles == LLCS * len(inline_setup.suite)


def test_one_cpu_profiles_in_process(pools, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    setup, store = _store(_started())
    assert pools == []
    assert store.generated_traces == len(setup.suite) and store.absorbed_profiles == 0


def test_a_live_extra_thread_profiles_in_process(pools, two_cpus):
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        setup, store = _store(_started())
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert pools == []
    assert store.generated_traces == len(setup.suite) and store.absorbed_profiles == 0


def test_a_warm_cache_dir_needs_no_pool(pools, two_cpus, tmp_path):
    _started(cache_dir=tmp_path)
    assert len(pools) == 1
    setup, store = _store(_started(cache_dir=tmp_path))
    assert len(pools) == 1
    assert store.loaded_profiles == store.loaded_traces == LLCS * len(setup.suite)
    assert store.generated_traces == store.absorbed_profiles == 0
