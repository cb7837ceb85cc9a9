"""Persistent result cache: the one on-disk store of a campaign.

An in-memory dictionary backed by JSON files holds every expensive
artefact of an experiment campaign: reference multi-core simulations,
MPPM predictions, single-core profiles and the LLC streams of the
profiling runs.  Entries are keyed by a content hash of everything the
result depends on.  Engine results cover the machine configuration,
the workload spec string, the benchmark/mix specification, model
configuration, trace length and seed (see
:func:`repro.engine.tasks._config_parts`), so two workloads sharing a
benchmark name can never collide in one cache directory.  Profiles and
LLC streams (:class:`~repro.profiling.store.ProfileStore`) are keyed
by the full benchmark spec and profiling configuration, so workloads
that share a bit-identical spec share them.  A repeated sweep is
near-free across processes and sessions.

Results are serialised through a small type registry: any dataclass
with ``to_dict``/``from_dict`` can be registered.  Unregistered types
still cache in memory within the process; they are simply not persisted.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.io import atomic_write_json, read_json_tolerant


def content_key(*parts: Any) -> str:
    """A stable content hash over the given parts.

    Parts are joined by their ``str`` form; callers must only pass
    values with stable, content-determined string representations
    (strings, numbers, tuples of those, frozen dataclasses).
    """
    description = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(description.encode("utf-8")).hexdigest()[:32]


class _Miss:
    """Sentinel for cache misses (``None`` is a legal cached value)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<cache miss>"


MISS = _Miss()

#: type name -> (class, to_payload, from_payload)
_SERIALIZERS: Dict[str, Tuple[type, Callable[[Any], Dict], Callable[[Dict], Any]]] = {}


def register_result_type(
    cls: type,
    to_payload: Optional[Callable[[Any], Dict]] = None,
    from_payload: Optional[Callable[[Dict], Any]] = None,
) -> None:
    """Make a result type persistable (defaults to ``to_dict``/``from_dict``)."""
    _SERIALIZERS[cls.__name__] = (
        cls,
        to_payload if to_payload is not None else (lambda value: value.to_dict()),
        from_payload if from_payload is not None else cls.from_dict,
    )


def serialize_result(value: Any) -> Optional[Dict]:
    """The ``{"type", "payload"}`` envelope for a registered result type.

    Returns ``None`` for unregistered types.  This is the single
    serialisation used both for disk persistence and for shipping
    results between fleet hosts (:mod:`repro.engine.remote.protocol`),
    so a result harvested over the wire is byte-for-byte the entry a
    local run would have written.
    """
    entry = _SERIALIZERS.get(type(value).__name__)
    if entry is None or not isinstance(value, entry[0]):
        return None
    return {"type": type(value).__name__, "payload": entry[1](value)}


def deserialize_result(data: Any) -> Any:
    """Rebuild a value from its registry envelope.

    Raises ``KeyError``/``TypeError``/``ValueError`` for foreign,
    truncated or invalid payloads; the disk cache treats those as a
    miss, the fleet protocol treats them as a corrupt worker payload.
    """
    entry = _SERIALIZERS[data["type"]]
    return entry[2](data["payload"])


class ResultCache:
    """Two-level (memory, disk) cache of experiment results.

    Parameters
    ----------
    cache_dir:
        Optional directory for JSON persistence; ``None`` keeps the
        cache memory-only.
    """

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.loaded = 0

    def __len__(self) -> int:
        return len(self._memory)

    def stats(self) -> Dict[str, int]:
        """Live counters (entries, hits, misses, stores, loaded).

        ``stores`` counts results actually computed and recorded, so a
        consumer can prove a warm sweep recomputed nothing by comparing
        the counter before and after (the service's ``/stats`` endpoint
        does exactly this).
        """
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "loaded": self.loaded,
        }

    def __contains__(self, key: str) -> bool:
        return self._memory.__contains__(key) or (
            self._path(key) is not None and self._path(key).exists()
        )

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`."""
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        loaded = self._load_from_disk(key)
        if loaded is not MISS:
            self._memory[key] = loaded
            self.hits += 1
            self.loaded += 1
            return loaded
        self.misses += 1
        return MISS

    def put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self.stores += 1
        self._save_to_disk(key, value)

    def clear_memory(self) -> None:
        """Drop the in-memory level (the on-disk cache is untouched)."""
        self._memory.clear()

    # ------------------------------------------------------------------
    # Disk level
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def _load_from_disk(self, key: str) -> Any:
        path = self._path(key)
        if path is None:
            return MISS
        data = read_json_tolerant(path)
        try:
            # A foreign, truncated or invalid payload is a miss, like corruption.
            return deserialize_result(data)
        except (TypeError, KeyError, ValueError):
            return MISS

    def _save_to_disk(self, key: str, value: Any) -> None:
        path = self._path(key)
        if path is None:
            return
        envelope = serialize_result(value)
        if envelope is None:
            return
        atomic_write_json(path, envelope)


def _register_builtin_types() -> None:
    from repro.core.result import MixPrediction
    from repro.profiling.profile import SingleCoreProfile
    from repro.profiling.profiler import ProfiledBenchmark
    from repro.simulators.llc_trace import LLCStream
    from repro.simulators.multi_core import MultiCoreRunResult

    register_result_type(MixPrediction)
    register_result_type(SingleCoreProfile)
    register_result_type(ProfiledBenchmark)
    register_result_type(LLCStream)
    register_result_type(MultiCoreRunResult)


_register_builtin_types()
