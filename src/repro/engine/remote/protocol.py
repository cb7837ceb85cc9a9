"""The fleet wire protocol: jobs out, result envelopes back.

Jobs travel as pickles (a :class:`~repro.engine.job.Job` is a frozen
dataclass of picklable parts — the same property the process-pool
backend relies on), base64-wrapped inside a JSON body so the transport
stays the service tier's JSON-over-HTTP.

Results travel as JSON envelopes and are never unpickled.  Registered
result types use the :class:`~repro.engine.cache.ResultCache` type
registry's ``{"type", "payload"}`` envelope — the exact bytes the
driver's disk cache would persist — so harvesting a remote result is
indistinguishable from computing it locally.  Every built-in task
returns a registered type (profile bundles included: their LLC traces
encode their arrays as base64), a list of them or a plain scalar; two
transparent wrappers cover the latter two: ``@list`` and ``@json``.  A
result of any other type fails to encode with
:class:`FleetProtocolError`.

Anything that fails to decode raises :class:`FleetProtocolError`; the
backend treats a worker that ships undecodable payloads as dead and
reassigns the job.
"""

from __future__ import annotations

import base64
import binascii
import pickle
from typing import Any, Dict

from repro.engine.cache import deserialize_result, serialize_result
from repro.engine.job import Job
from repro.engine.remote.errors import FleetProtocolError


def _b64encode(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _b64decode(data: Any) -> bytes:
    if not isinstance(data, str):
        raise FleetProtocolError(f"expected base64 string, got {type(data).__name__}")
    try:
        return base64.b64decode(data.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error) as error:
        raise FleetProtocolError(f"invalid base64 payload: {error}") from None


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def encode_job(job: Job) -> Dict[str, Any]:
    """The ``POST /run`` body for one job."""
    return {
        "key": job.key,
        "kind": job.kind,
        "cache_key": job.cache_key,
        "job": _b64encode(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)),
    }


def decode_job(payload: Dict[str, Any]) -> Job:
    """Rebuild the job from a ``POST /run`` body."""
    raw = _b64decode(payload.get("job"))
    try:
        job = pickle.loads(raw)
    except Exception as error:  # noqa: BLE001 - pickle raises open-endedly
        raise FleetProtocolError(f"job payload does not unpickle: {error}") from None
    if not isinstance(job, Job):
        raise FleetProtocolError(f"job payload decoded to {type(job).__name__}, not Job")
    return job


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def encode_result(value: Any) -> Dict[str, Any]:
    """A JSON-safe envelope for any task result."""
    envelope = serialize_result(value)
    if envelope is not None:
        return envelope
    if isinstance(value, (list, tuple)):
        return {"type": "@list", "items": [encode_result(item) for item in value]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"type": "@json", "value": value}
    raise FleetProtocolError(
        f"{type(value).__name__} results cannot travel: register the type "
        "with repro.engine.cache.register_result_type"
    )


def decode_result(envelope: Any) -> Any:
    """Rebuild a task result from its envelope."""
    if not isinstance(envelope, dict) or "type" not in envelope:
        raise FleetProtocolError(f"malformed result envelope: {envelope!r}")
    kind = envelope["type"]
    if kind == "@list":
        items = envelope.get("items")
        if not isinstance(items, list):
            raise FleetProtocolError("@list envelope without an items list")
        return [decode_result(item) for item in items]
    if kind == "@json":
        return envelope.get("value")
    try:
        return deserialize_result(envelope)
    except (KeyError, TypeError, ValueError) as error:
        raise FleetProtocolError(f"unknown or truncated result envelope: {error}") from None
