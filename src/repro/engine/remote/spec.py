"""Fleet spec strings: how a multi-host backend is named.

A fleet spec is a string with the ``fleet:`` prefix, accepted anywhere
an engine ``jobs`` count is (``create_engine(jobs="fleet:...")``,
``ExperimentSetup(jobs=...)``, ``repro run --fleet ...``).  Three
worker sources:

* ``fleet:localhost:N`` — N loopback workers forked from the driver
  and owned by it.  The CI-testable path.
* ``fleet:ssh=host1,host2`` — one worker per host, launched over
  ``ssh`` (``BatchMode``; the hosts need key auth and the repro
  package on their python path).
* ``fleet:attach=host:port+host:port`` — adopt already-running
  ``repro worker`` agents (``+``-separated because endpoints contain
  ``:``).  Attached workers are not shut down on close.

Options ride anywhere after the worker source as ``,key=value`` pairs:
``timeout`` (per-job seconds, finite), ``python`` (remote interpreter,
``ssh=`` fleets only).  Example: ``fleet:localhost:2,timeout=900``.  A
``key=value`` item is always an option, never a host.  The grammar is
the shared one of :mod:`repro.specs`.
"""

from __future__ import annotations

from repro.engine.remote.errors import FleetSpecError
from repro.specs import Endpoints, Family, Grammar, Hosts, Integer, Param, ParsedSpec, Seconds, Text

PREFIX = "fleet:"

#: Per-job execution timeout (seconds) unless the spec overrides it.
DEFAULT_JOB_TIMEOUT = 600.0

_TIMEOUT = {"timeout": Param(Seconds(), DEFAULT_JOB_TIMEOUT, elide=True)}

#: The worker sources, one family each; options may appear anywhere
#: after the head, and ``python`` only means something over ssh.
_SPECS = Grammar(
    "fleet",
    FleetSpecError,
    [
        Family("localhost", (("fleet:localhost:2",),), head=Integer(1), params=_TIMEOUT),
        Family(
            "ssh",
            (("fleet:ssh=host1",),),
            head=Hosts(),
            params={**_TIMEOUT, "python": Param(Text(), "python3", elide=True)},
            extra=True,
            separator="=",
        ),
        Family(
            "attach",
            (("fleet:attach=host1:8000",),),
            head=Endpoints(),
            params=_TIMEOUT,
            separator="=",
        ),
    ],
    prefix=PREFIX,
)


def is_fleet_spec(value: object) -> bool:
    """Whether a ``jobs`` value names a fleet rather than a pool size."""
    return isinstance(value, str) and value.startswith(PREFIX)


def normalize_fleet_flag(value: str) -> str:
    """CLI convenience: accept ``localhost:2`` and ``fleet:localhost:2`` alike."""
    spec = value if value.startswith(PREFIX) else PREFIX + value
    return parse_fleet_spec(spec).canonical


def parse_fleet_spec(spec: str) -> ParsedSpec:
    """Parse a ``fleet:`` spec string.

    ``family`` is the worker source (``"localhost"`` / ``"ssh"`` /
    ``"attach"``); ``head`` is the loopback worker count, the ssh host
    names or the ``host:port`` endpoints; ``params`` holds ``timeout``
    and, for ``ssh``, ``python``.
    """
    return _SPECS.parse(spec)
