"""Tests for the prediction service's start-up profiling.

:meth:`PredictionService.start` profiles the configured workload through
the setup's one profile step on a process pool it borrows over every
local CPU, and closes that pool before it listens.  These tests start
services on the main thread (``asyncio.run``), outside any live
:class:`ServiceThread`: an extra thread alive would make the start-up
profile in process instead, which one test checks on purpose.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.engine import ProcessPoolBackend
from repro.service import PredictionService, ServiceConfig
from repro.service import app as service_app

WORKLOAD = "suite:spec29/scaled@5"


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
    assert store.absorbed_profiles == len(setup.suite) == service.preloaded_profiles


def test_pooled_and_inline_start_ups_serve_identical_profiles(pools, two_cpus, monkeypatch):
    pooled_setup, pooled = _store(_started())
    assert len(pools) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline_setup, inline = _store(_started())
    assert len(pools) == 1
    assert inline.generated_traces == len(inline_setup.suite) and inline.absorbed_profiles == 0
    machine = pooled_setup.machine()
    for spec in pooled_setup.suite:
        ours, theirs = pooled.get(spec, machine), inline.get(spec, machine)
        assert ours.profile.to_dict() == theirs.profile.to_dict()
        for name in ("line", "insn", "upstream_cycle_gap"):
            assert np.array_equal(getattr(ours.llc_trace, name), getattr(theirs.llc_trace, name))
        assert ours.llc_trace.isolated_cycles == theirs.llc_trace.isolated_cycles
        assert ours.llc_trace.tail_cycles == theirs.llc_trace.tail_cycles


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
    assert store.loaded_profiles == store.loaded_traces == len(setup.suite)
    assert store.generated_traces == store.absorbed_profiles == 0
