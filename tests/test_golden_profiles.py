"""Golden profiles: every profiling output, digest for digest.

``tests/data/golden_profiles.json`` holds a SHA-256 of every
:class:`~repro.profiling.SingleCoreProfile` field and every
:class:`~repro.simulators.llc_trace.LLCAccessTrace` array of the
default 29-benchmark suite on the six Table 2 LLCs (1/16 scale,
50,000 instructions).  Each machine is resolved in its own
:meth:`~repro.profiling.ProfileStore.get` call, the way an experiment
set-up and the service ask for them, so the store's memos across calls
are on the checked path.  A change to the profiling kernels that must
not move a bit is checked against it.

Regenerate it only when a change is *meant* to move profiles::

    PYTHONPATH=src python tests/test_golden_profiles.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro.config import llc_design_space, scaled
from repro.profiling import ProfileStore
from repro.workloads import spec_cpu2006_like_suite

from testdefaults import TEST_INSTRUCTIONS, TEST_INTERVAL, TEST_SCALE

GOLDEN = Path(__file__).parent / "data" / "golden_profiles.json"

_PROFILE_SCALARS = (
    "benchmark",
    "machine_key",
    "machine_name",
    "interval_instructions",
    "llc_associativity",
)
_INTERVAL_COLUMNS = ("instructions", "cpi", "memory_cpi", "llc_accesses", "llc_misses", "sdc")
_TRACE_ARRAYS = ("line", "insn", "upstream_cycle_gap")
_TRACE_SCALARS = ("num_instructions", "tail_cycles", "isolated_cycles")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return _sha(array.dtype.str.encode() + array.tobytes())


def _field_digests(profiled) -> Dict[str, str]:
    profile, trace = profiled.profile, profiled.llc_trace
    out = {
        f"profile.{name}": _sha(repr(getattr(profile, name)).encode())
        for name in _PROFILE_SCALARS
    }
    # The key names (and the index column) predate the columnar profile.
    out["profile.intervals.index"] = _array_sha(np.arange(profile.num_intervals))
    for column in _INTERVAL_COLUMNS:
        out[f"profile.intervals.{column}"] = _array_sha(profile.columns[column])
    for name in _TRACE_ARRAYS:
        out[f"trace.{name}"] = _array_sha(getattr(trace, name))
    for name in _TRACE_SCALARS:
        out[f"trace.{name}"] = _sha(repr(getattr(trace, name)).encode())
    return out


def golden_profiles() -> Dict[str, Dict[str, str]]:
    """SHA-256s over every profile field and trace array, per field and per pair.

    ``fields`` hashes one field across all (benchmark, LLC config)
    pairs in order; ``pairs`` hashes all fields of one pair.  A moved
    bit names both the field and the pair.
    """
    store = ProfileStore(
        num_instructions=TEST_INSTRUCTIONS, interval_instructions=TEST_INTERVAL, seed=0
    )
    suite = spec_cpu2006_like_suite()
    fields: Dict[str, Any] = {}
    pairs = {}
    for config, machine in enumerate(llc_design_space(), start=1):
        machine = scaled(machine, TEST_SCALE)
        for spec in suite:
            digests = _field_digests(store.get(spec, machine))
            for name, digest in digests.items():
                fields.setdefault(name, hashlib.sha256()).update(digest.encode())
            pairs[f"{spec.name}/llc{config}"] = _sha(json.dumps(digests, sort_keys=True).encode())
    return {
        "fields": {name: hasher.hexdigest() for name, hasher in fields.items()},
        "pairs": pairs,
    }


def _dump(digests: dict) -> str:
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


def test_profiles_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_profiles()
    for kind in ("fields", "pairs"):
        assert sorted(actual[kind]) == sorted(expected[kind])
        moved = [key for key, digest in expected[kind].items() if actual[kind][key] != digest]
        assert not moved, f"{kind} moved: {moved[:20]}"


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_profiles()))
    print(f"wrote {GOLDEN}")
