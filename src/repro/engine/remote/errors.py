"""Fleet error taxonomy.

The distinction that matters operationally is *whose fault it was*:

* :class:`FleetSpecError` — the fleet spec string is malformed; raised
  at parse time, before anything is launched.
* :class:`WorkerTransportError` — one request to one worker failed at
  the HTTP/socket level (refused, timed out, truncated, non-JSON).
  The backend treats this as a *worker* failure: the worker is retired
  and its in-flight job is reassigned to a survivor.
* :class:`FleetError` — the fleet as a whole cannot make progress
  (unreachable hosts at startup, every worker dead with jobs pending).
* :class:`FleetJobError` — the *job itself* raised on a worker.  Jobs
  are deterministic, so rerunning elsewhere would fail identically;
  the error propagates to the caller instead of being retried.
"""

from __future__ import annotations

from repro.specs import SpecError


class FleetError(RuntimeError):
    """The fleet cannot make progress (startup or mid-sweep)."""


class FleetSpecError(FleetError, SpecError):
    """A malformed ``fleet:`` spec string."""


class FleetProtocolError(FleetError):
    """A payload that does not decode to a job or a registered result."""


class WorkerTransportError(FleetError):
    """One worker request failed at the transport level."""


class FleetJobError(FleetError):
    """A job function raised on a worker (deterministic; not retried)."""
