"""Distributed sweep engine: a multi-host fleet behind the backend seam.

The engine's :class:`~repro.engine.executor.Executor` already hides
Serial vs ProcessPool behind one contract (a list of jobs in, results
in submission order out); this package adds the third backend — a
*fleet* of worker hosts — with the content-hash
:class:`~repro.engine.cache.ResultCache` as the shared dedup layer, so
no host ever recomputes another host's job and any backend produces
the same bytes.

* :mod:`repro.engine.remote.spec` — ``fleet:`` spec strings
* :mod:`repro.engine.remote.protocol` — pickled jobs out, registry
  result envelopes back
* :mod:`repro.engine.remote.worker` — the ``repro worker`` agent
* :mod:`repro.engine.remote.client` — blocking per-worker HTTP client
* :mod:`repro.engine.remote.launch` — forked loopback / ssh launch
* :mod:`repro.engine.remote.backend` — :class:`FleetBackend`:
  cache-aware dispatch, retry-on-worker-failure, heartbeats
"""

from repro.engine.remote.backend import FleetBackend
from repro.engine.remote.client import WorkerClient
from repro.engine.remote.errors import (
    FleetError,
    FleetJobError,
    FleetProtocolError,
    FleetSpecError,
    WorkerTransportError,
)
from repro.engine.remote.launch import WorkerHandle, launch_local_workers, launch_ssh_workers
from repro.engine.remote.protocol import decode_job, decode_result, encode_job, encode_result
from repro.engine.remote.spec import (
    DEFAULT_JOB_TIMEOUT,
    normalize_fleet_flag,
    parse_fleet_spec,
)
from repro.engine.remote.worker import ANNOUNCE_PREFIX, FleetWorker, run_worker, serve_worker

__all__ = [
    "FleetBackend",
    "FleetWorker",
    "FleetError",
    "FleetJobError",
    "FleetProtocolError",
    "FleetSpecError",
    "WorkerTransportError",
    "WorkerClient",
    "WorkerHandle",
    "ANNOUNCE_PREFIX",
    "normalize_fleet_flag",
    "parse_fleet_spec",
    "DEFAULT_JOB_TIMEOUT",
    "launch_local_workers",
    "launch_ssh_workers",
    "encode_job",
    "decode_job",
    "encode_result",
    "decode_result",
    "run_worker",
    "serve_worker",
]
