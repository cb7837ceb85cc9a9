"""In-memory span tracer installed from the benchmark's own files.

The tracer replaces functions on modules and classes with timing
wrappers (:meth:`Tracer.wrap`), keeps every span in memory and computes
per-name call counts, total time and self time at the end.  Self time
is a span's duration minus the part of its interval covered by its
child spans (the union, so concurrent children are not counted twice).

Parent links follow a :mod:`contextvars` variable, so nested calls in
one thread and awaits inside one asyncio task link up, while work handed
to another thread starts a new root span there.

Nothing here imports the program under test; :mod:`layers` says what to
wrap.  :meth:`Tracer.restore` puts every replaced attribute back.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: One finished span: (name, start_ns, end_ns, span id, parent id or 0, thread id).
Span = Tuple[str, int, int, int, int, int]


def covered_ns(intervals: Iterable[Tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Spans, counters and the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        #: Instances recorded by :meth:`track_instances`, by class label.
        self.instances: Dict[str, list] = defaultdict(list)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench-span-{id(self)}", default=None
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def current(self) -> Optional[str]:
        """Name of the innermost open span in this context, if any."""
        open_span = self._current.get()
        return open_span[1] if open_span is not None else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set((span_id, name))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(
                (name, start, end, span_id, parent[0] if parent else 0, threading.get_ident())
            )

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def note(self, name: str, key: Any) -> None:
        with self._lock:
            self.distinct[name].add(key)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, replacement: Any) -> Any:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return raw

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        key: Optional[Callable[..., Any]] = None,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        skip_under: Tuple[str, ...] = (),
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is the module or class the caller resolves the name
        from.  ``key(*args, **kwargs)`` names the call's input for the
        distinct-input count.  ``before(tracer, *args, **kwargs)`` runs
        ahead of the span and its return value is handed to
        ``after(tracer, state, result, *args, **kwargs)``, which runs
        after the span and records counts from the result.  A call made
        while a span named in ``skip_under`` is innermost runs untimed,
        as part of that span.
        """
        func = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def enter(args: tuple, kwargs: dict) -> Any:
            if key is not None:
                tracer.note(name, key(*args, **kwargs))
            return before(tracer, *args, **kwargs) if before is not None else None

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                state = enter(args, kwargs)
                with tracer.span(name):
                    result = await func(*args, **kwargs)
                if after is not None:
                    after(tracer, state, result, *args, **kwargs)
                return result

        else:

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if skip_under and tracer.current() in skip_under:
                    return func(*args, **kwargs)
                state = enter(args, kwargs)
                with tracer.span(name):
                    result = func(*args, **kwargs)
                if after is not None:
                    after(tracer, state, result, *args, **kwargs)
                return result

        self._replace(owner, attr, wrapper)

    def track_instances(self, cls: type, label: str) -> None:
        """Remember every ``cls`` constructed from now on (for public counters)."""
        original = cls.__dict__["__init__"]
        instances = self.instances[label]

        @functools.wraps(original)
        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._replace(cls, "__init__", __init__)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over every span."""
        return summarize(self.spans)

    def dump(self) -> Dict[str, Any]:
        """A JSON-ready copy of the spans, counters and distinct counts."""
        return {
            "spans": [list(span) for span in self.spans],
            "counters": dict(self.counters),
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    out: Dict[str, Dict[str, float]] = {}
    for name, start, end, span_id, _, _ in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration / 1e9
        entry["self_s"] += (duration - covered_ns(children.get(span_id, ()), start, end)) / 1e9
    return out


def root_coverage(spans: Iterable[Span], start: int, end: int) -> float:
    """Share of ``[start, end]`` covered by root spans (those without a parent)."""
    roots = [(s, e) for _, s, e, _, parent, _ in spans if not parent]
    return covered_ns(roots, start, end) / max(1, end - start)


def chrome_events(spans: Iterable[Span], pid: int) -> List[Dict[str, Any]]:
    """Chrome trace-event ``X`` records (microseconds) for one process's spans."""
    return [
        {
            "name": name,
            "ph": "X",
            "ts": start / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": pid,
            "tid": thread,
            "args": {"id": span_id, "parent": parent},
        }
        for name, start, end, span_id, parent, thread in spans
    ]
