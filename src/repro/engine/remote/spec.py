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

from dataclasses import dataclass, field
from typing import Tuple, Union

from repro.engine.remote.errors import FleetSpecError
from repro.specs import Endpoints, Family, Grammar, Hosts, Integer, Param, Seconds, Text

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


@dataclass(frozen=True)
class FleetSpec:
    """A parsed fleet spec.

    ``kind`` is ``"localhost"`` / ``"ssh"`` / ``"attach"``; ``count``
    is the loopback worker count (0 otherwise); ``hosts`` holds ssh
    host names or ``host:port`` endpoints for ``attach``.
    """

    kind: str
    canonical: str
    count: int = 0
    hosts: Tuple[str, ...] = field(default=())
    job_timeout: float = DEFAULT_JOB_TIMEOUT
    python: str = "python3"

    @property
    def num_workers(self) -> int:
        return self.count if self.kind == "localhost" else len(self.hosts)

    def __str__(self) -> str:
        return self.canonical


def parse_fleet_spec(spec: Union[str, "FleetSpec"]) -> FleetSpec:
    """Parse a ``fleet:`` spec string into a :class:`FleetSpec`."""
    if isinstance(spec, FleetSpec):
        return spec
    parsed = _SPECS.parse(spec)
    localhost = parsed.family == "localhost"
    return FleetSpec(
        kind=parsed.family,
        canonical=parsed.canonical,
        count=parsed.head if localhost else 0,
        hosts=() if localhost else parsed.head,
        job_timeout=parsed.params["timeout"],
        python=parsed.params.get("python", "python3"),
    )
