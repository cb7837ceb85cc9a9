"""Launching fleet workers: loopback subprocesses and ssh remotes.

Loopback workers (``fleet:localhost:N``) are real ``repro worker``
subprocesses on ``127.0.0.1`` — the CI-testable path exercising the
full wire protocol, process isolation included.  Each is started with
``--port 0``; the launcher reads the announce line
(:data:`~repro.engine.remote.worker.ANNOUNCE_PREFIX`) from its stdout
to discover the bound port.

Both kinds go through one launch path: every process is started
before any announce is read, so N workers cost about one interpreter
startup, not N.  The announces are then collected under one deadline;
a worker that exits, announces garbage or stays silent past it raises
:class:`~repro.engine.remote.errors.FleetError` naming its tag, and
every process already started is terminated.

SSH workers (``fleet:ssh=host1,host2``) use the same announce
handshake over ``ssh -o BatchMode=yes``: the remote worker binds
``0.0.0.0`` and announces its port; the driver then connects directly
to ``host:port`` (trusted-network assumption, like every MPI launcher).
The hosts need key-based auth and the repro package importable by the
remote interpreter.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.engine.remote.errors import FleetError
from repro.engine.remote.worker import ANNOUNCE_PREFIX

#: Wall-clock budget for a launched worker to print its announce line.
STARTUP_TIMEOUT = 60.0


@dataclass
class WorkerHandle:
    """One launched (or adopted) worker endpoint."""

    url: str
    tag: str
    #: The local subprocess (loopback) or ssh client process; ``None``
    #: for attached endpoints the fleet does not own.
    process: Optional[subprocess.Popen] = None

    @property
    def owned(self) -> bool:
        return self.process is not None

    def terminate(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _worker_env() -> dict:
    """The subprocess environment, with the repro package importable."""
    src_dir = str(Path(__file__).resolve().parents[3])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else f"{src_dir}{os.pathsep}{existing}"
    return env


def _launch_workers(
    commands: Sequence[Tuple[str, List[str]]],
    startup_timeout: float,
    env: Optional[dict] = None,
) -> List[WorkerHandle]:
    """Start every ``(tag, command)`` worker, then collect their announces.

    Each handle's ``url`` is the URL its worker announced. If any worker
    fails to start, exits or announces garbage, or the deadline passes,
    every process already started is terminated and :class:`FleetError`
    names the worker at fault.
    """
    handles: List[WorkerHandle] = []
    try:
        for tag, command in commands:
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
            )
            handles.append(WorkerHandle(url="", tag=tag, process=process))
        _read_announces(handles, startup_timeout)
    except BaseException:
        for handle in handles:
            handle.terminate()
        raise
    return handles


def _read_announces(handles: List[WorkerHandle], timeout: float) -> None:
    """Set each handle's ``url`` from its worker's announce line, under one deadline."""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        for handle in handles:
            selector.register(handle.process.stdout, selectors.EVENT_READ, handle)
        buffers = {handle.tag: b"" for handle in handles}
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                silent = ", ".join(key.data.tag for key in selector.get_map().values())
                raise FleetError(f"worker {silent} did not announce within {timeout:g}s")
            for key, _events in selector.select(remaining):
                handle = key.data
                chunk = os.read(key.fd, 4096)
                if not chunk:
                    try:
                        code = handle.process.wait(timeout=1.0)
                    except subprocess.TimeoutExpired:
                        code = None
                    raise FleetError(
                        f"worker {handle.tag} exited with code {code} before announcing"
                    )
                buffers[handle.tag] += chunk
                line, separator, _rest = buffers[handle.tag].partition(b"\n")
                if not separator:
                    continue
                text = line.decode("utf-8", "replace").strip()
                if not text.startswith(ANNOUNCE_PREFIX):
                    raise FleetError(f"worker {handle.tag} announced garbage: {text!r}")
                handle.url = text[len(ANNOUNCE_PREFIX) :]
                selector.unregister(key.fileobj)


def launch_local_workers(
    count: int,
    cache_dir: Optional[str] = None,
    startup_timeout: float = STARTUP_TIMEOUT,
) -> List[WorkerHandle]:
    """Start ``count`` loopback worker subprocesses; returns their handles."""
    commands = []
    for index in range(count):
        tag = f"local-{index}"
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--tag",
            tag,
        ]
        if cache_dir is not None:
            command += ["--cache-dir", str(cache_dir)]
        commands.append((tag, command))
    return _launch_workers(commands, startup_timeout, env=_worker_env())


def launch_ssh_workers(
    hosts: List[str],
    python: str = "python3",
    cache_dir: Optional[str] = None,
    startup_timeout: float = STARTUP_TIMEOUT,
) -> List[WorkerHandle]:
    """Start one worker per ssh host; returns their handles.

    The worker process on the remote host outlives nothing: killing the
    local ssh client tears down the remote agent with it (no ``-f``,
    no nohup), so fleet teardown is a plain :meth:`WorkerHandle.terminate`.
    """
    commands = []
    for index, host in enumerate(hosts):
        tag = f"ssh-{index}-{host}"
        remote = f"{python} -m repro.cli worker --host 0.0.0.0 --port 0 --tag {tag}"
        if cache_dir is not None:
            remote += f" --cache-dir {cache_dir}"
        commands.append((tag, ["ssh", "-o", "BatchMode=yes", host, remote]))
    handles = _launch_workers(commands, startup_timeout)
    for handle, host in zip(handles, hosts):
        # The remote binds 0.0.0.0; the reachable address is the host.
        handle.url = f"http://{host}:{urlsplit(handle.url).port}"
    return handles
