"""Tests of the benchmark's own tracer and layer table.

Run from the repository root::

    python -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from tracer import Tracer, covered_ns, root_coverage, summarize  # noqa: E402


def test_covered_ns_takes_the_union_clipped_to_the_parent():
    assert covered_ns([(10, 30), (20, 50), (60, 70)], 0, 100) == 50
    assert covered_ns([(-5, 5), (95, 120)], 0, 100) == 10
    assert covered_ns([], 0, 100) == 0


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        ("parent", 0, 100, 1, 0, 1),
        ("child", 10, 30, 2, 1, 1),
        ("child", 20, 50, 3, 1, 1),
        ("child", 60, 70, 4, 1, 1),
        ("grandchild", 12, 18, 5, 2, 1),
    ]
    summary = summarize(spans)
    assert summary["parent"]["calls"] == 1
    assert summary["parent"]["total_s"] == pytest.approx(100e-9)
    assert summary["parent"]["self_s"] == pytest.approx(50e-9)
    assert summary["child"]["calls"] == 3
    assert summary["child"]["total_s"] == pytest.approx(60e-9)
    assert summary["child"]["self_s"] == pytest.approx(54e-9)
    assert root_coverage(spans, 0, 200) == pytest.approx(0.5)


class Tree:
    def outer(self):
        return [self.inner() for _ in range(2)]

    def inner(self):
        return module.leaf() + module.leaf()


module = types.SimpleNamespace(leaf=lambda: 1)


def test_nested_calls_link_parents_and_count_calls():
    tracer = Tracer()
    tracer.wrap(Tree, "outer", "outer")
    tracer.wrap(Tree, "inner", "inner")
    tracer.wrap(module, "leaf", "leaf")
    try:
        assert Tree().outer() == [2, 2]
    finally:
        tracer.restore()
    by_id = {span[3]: span for span in tracer.spans}
    parents = {span[0]: set() for span in tracer.spans}
    for name, _, _, _, parent, _ in tracer.spans:
        parents[name].add(by_id[parent][0] if parent else None)
    assert parents == {"outer": {None}, "inner": {"outer"}, "leaf": {"inner"}}
    summary = tracer.summary()
    assert {name: entry["calls"] for name, entry in summary.items()} == {
        "outer": 1,
        "inner": 2,
        "leaf": 4,
    }
    outer, inner, leaf = summary["outer"], summary["inner"], summary["leaf"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    assert inner["self_s"] == pytest.approx(inner["total_s"] - leaf["total_s"], abs=1e-12)
    assert leaf["self_s"] == pytest.approx(leaf["total_s"], abs=1e-12)


def test_hooks_count_distinct_inputs_and_results():
    tracer = Tracer()
    calls = types.SimpleNamespace(square=lambda x: x * x)
    tracer.wrap(
        calls,
        "square",
        "square",
        key=lambda x: x,
        before=lambda t, x: x + 1,
        after=lambda t, state, result, x: t.add("square.sum", result + state),
    )
    try:
        for x in (1, 2, 2, 3):
            calls.square(x)
    finally:
        tracer.restore()
    assert tracer.dump()["distinct"] == {"square": 3}
    assert tracer.counters["square.sum"] == (1 + 4 + 4 + 9) + (2 + 3 + 3 + 4)


def test_skip_under_leaves_the_call_in_the_enclosing_span():
    tracer = Tracer()
    space = types.SimpleNamespace(work=lambda: 1)
    space.outer = lambda: space.work()
    tracer.wrap(space, "work", "work", skip_under=("outer",))
    tracer.wrap(space, "outer", "outer")
    try:
        space.outer()
        space.work()
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans] == ["outer", "work"]
    assert tracer.spans[1][4] == 0


def test_async_children_overlap_and_threads_start_new_roots():
    tracer = Tracer()

    class Service:
        async def handle(self):
            return sum(await asyncio.gather(self.submit(), self.submit()))

        async def submit(self):
            await asyncio.sleep(0.01)
            return 1

    tracer.wrap(Service, "handle", "handle")
    tracer.wrap(Service, "submit", "submit")
    worker = types.SimpleNamespace(job=lambda: None)
    tracer.wrap(worker, "job", "job")
    try:
        assert asyncio.run(Service().handle()) == 2
        with tracer.span("main"):
            thread = threading.Thread(target=worker.job)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        tracer.restore()
    spans = {span[0]: span for span in tracer.spans}
    handle_id = spans["handle"][3]
    assert [s[4] for s in tracer.spans if s[0] == "submit"] == [handle_id, handle_id]
    assert spans["job"][4] == 0
    summary = tracer.summary()
    # The two submits run concurrently: together they cover about one sleep.
    assert summary["submit"]["total_s"] > summary["handle"]["total_s"]
    assert summary["handle"]["self_s"] < 0.5 * summary["handle"]["total_s"]


def test_restore_removes_every_patch():
    tracer = Tracer()

    class Thing:
        def __init__(self):
            self.ready = True

        def method(self):
            return 1

    namespace = types.SimpleNamespace(function=lambda: 2)
    originals = (Thing.__dict__["__init__"], Thing.__dict__["method"], namespace.function)
    tracer.wrap(Thing, "method", "method")
    tracer.wrap(namespace, "function", "function")
    tracer.track_instances(Thing, "things")
    Thing().method()
    namespace.function()
    tracer.restore()
    assert (Thing.__dict__["__init__"], Thing.__dict__["method"], namespace.function) == originals
    recorded = len(tracer.spans)
    Thing().method()
    namespace.function()
    assert len(tracer.spans) == recorded
    assert len(tracer.instances["things"]) == 1


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_layer_wrappers_do_not_leak_between_workloads():
    originals = None
    for _ in range(2):
        tracer = Tracer()
        layers.install_experiments(tracer)
        layers.install(tracer)
        patches = list(tracer._patches)
        assert all(_current(owner, attr) is not raw for owner, attr, raw in patches)
        tracer.restore()
        assert all(_current(owner, attr) is raw for owner, attr, raw in patches)
        raws = [raw for _, _, raw in patches]
        if originals is not None:
            assert all(a is b for a, b in zip(raws, originals))
        originals = raws
    from repro.caches import vectorized
    from repro.simulators import multi_core

    assert multi_core.stack_distances is vectorized.stack_distances


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == layers.PER_LAYER
    assert list(layers.per_layer({}, {}, {})) == [name for name, _, _ in layers.PER_LAYER]
