"""Launching fleet workers: forked loopback workers and ssh remotes.

Loopback workers (``fleet:localhost:N``) are ``repro worker`` agents on
``127.0.0.1`` — the CI-testable path exercising the full wire protocol,
process isolation included.  Each is **forked** from the driver, which
already has numpy and ``repro`` imported, so a worker is serving within
milliseconds instead of after an interpreter start and a re-import
(about 0.5 s each).  The child points fds 0/1/2 and every descriptor
it inherited besides its announce pipe at ``/dev/null``, restores the
default SIGINT/SIGTERM handlers, starts a thread that ends the worker
once the driver dies (the child is reparented, so ``os.getppid()``
changes: a driver killed by SIGKILL leaves no orphan serving), forgets
the driver's experiment setups
(:func:`~repro.engine.tasks.forget_setups`: it rebuilds them from job
recipes, exactly as a worker on another host does), binds port 0,
writes its announce line
(:data:`~repro.engine.remote.worker.ANNOUNCE_PREFIX`) to a pipe the
driver reads, and leaves only through ``os._exit``.  The driver holds
it through :class:`ForkedWorker`, which offers the slice of the
:class:`subprocess.Popen` API fleet code uses.  Fork from a
single-threaded process: the CLI and ``repro serve`` build their engine
before they start any thread.

SSH workers (``fleet:ssh=host1,host2``) exec ``python -m repro.cli
worker`` over ``ssh -o BatchMode=yes``: the remote worker binds
``0.0.0.0`` and announces its port on stdout; the driver then connects
directly to ``host:port`` (trusted-network assumption, like every MPI
launcher).  The hosts need key-based auth and the repro package
importable by the remote interpreter.

Both kinds share one handshake: every worker is started before any
announce is read, and the announces are then collected under one
deadline; a worker that exits, announces garbage or stays silent past
it raises :class:`~repro.engine.remote.errors.FleetError` naming its
tag, and every process already started is terminated and reaped.
"""

from __future__ import annotations

import functools
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from repro.engine.remote.errors import FleetError
from repro.engine.remote.worker import ANNOUNCE_PREFIX, run_worker
from repro.engine.tasks import forget_setups

#: Wall-clock budget for a launched worker to print its announce line.
STARTUP_TIMEOUT = 60.0

#: Seconds between a forked worker's checks that its driver is alive.
DRIVER_POLL_INTERVAL = 0.2


class ForkedWorker:
    """A loopback worker forked from the driver, behind a Popen-like surface.

    ``stdout`` is the announce pipe.  :meth:`poll` and :meth:`wait` reap
    the child, and signals are only sent to a child not yet reaped, so
    its pid can never have been recycled.
    """

    def __init__(self, pid: int, stdout) -> None:
        self.pid = pid
        self.stdout = stdout
        self.returncode: Optional[int] = None
        self._lock = threading.RLock()

    def poll(self) -> Optional[int]:
        with self._lock:
            if self.returncode is None:
                try:
                    pid, status = os.waitpid(self.pid, os.WNOHANG)
                except ChildProcessError:
                    # Reaped behind our back (SIGCHLD ignored): the code is lost.
                    self.returncode = 0
                else:
                    if pid:
                        self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(f"forked worker {self.pid}", timeout)
                delay = min(delay, remaining)
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        with self._lock:
            if self.poll() is None:
                os.kill(self.pid, sig)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


@dataclass
class WorkerHandle:
    """One launched (or adopted) worker endpoint."""

    url: str
    tag: str
    #: The forked loopback worker or the ssh client process; ``None``
    #: for attached endpoints the fleet does not own.
    process: Optional[Union[ForkedWorker, subprocess.Popen]] = None

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


def _launch(
    starters: Sequence[Tuple[str, Callable[[], Union[ForkedWorker, subprocess.Popen]]]],
    startup_timeout: float,
) -> List[WorkerHandle]:
    """Start every ``(tag, start)`` worker, then collect their announces.

    Each handle's ``url`` is the URL its worker announced. If any worker
    fails to start, exits or announces garbage, or the deadline passes,
    every process already started is terminated and :class:`FleetError`
    names the worker at fault.
    """
    handles: List[WorkerHandle] = []
    try:
        for tag, start in starters:
            handles.append(WorkerHandle(url="", tag=tag, process=start()))
        _read_announces(handles, startup_timeout)
    except BaseException:
        for handle in handles:
            handle.terminate()
        raise
    return handles


def _launch_workers(
    commands: Sequence[Tuple[str, List[str]]],
    startup_timeout: float = STARTUP_TIMEOUT,
) -> List[WorkerHandle]:
    """Exec every ``(tag, command)`` worker, then collect their announces."""
    return _launch(
        [
            (
                tag,
                functools.partial(
                    subprocess.Popen,
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                ),
            )
            for tag, command in commands
        ],
        startup_timeout,
    )


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


def _fork_worker(tag: str, cache_dir: Optional[str]) -> ForkedWorker:
    """Fork one loopback worker; the child announces on a pipe."""
    # Text buffered in the driver would otherwise be copied into the child.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    driver = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _worker_child(tag, cache_dir, write_fd, driver)
    os.close(write_fd)
    return ForkedWorker(pid, os.fdopen(read_fd, "rb", buffering=0))


def _worker_child(
    tag: str, cache_dir: Optional[str], announce_fd: int, driver: int
) -> NoReturn:
    """The forked worker's whole life: serve until shutdown, then ``os._exit``."""
    code = 1
    try:
        devnull = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2, *_inherited_fds((announce_fd, devnull))):
            os.dup2(devnull, fd)
        if devnull > 2:
            os.close(devnull)
        # The driver's handlers (asyncio's SIGINT one under `repro serve`)
        # belong to its event loop, not to this process.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        threading.Thread(target=_exit_without_driver, args=(driver,), daemon=True).start()
        forget_setups()

        def announce(line: str) -> None:
            os.write(announce_fd, f"{line}\n".encode("utf-8"))

        code = run_worker("127.0.0.1", 0, cache_dir=cache_dir, tag=tag, printer=announce)
    finally:
        os._exit(code)


def _inherited_fds(keep: Sequence[int]) -> List[int]:
    """Open descriptors above 2 that are not in ``keep``.

    The forked worker points these at ``/dev/null`` instead of closing
    them: that drops its references to the driver's pipes, sockets and
    files, but keeps their numbers taken, so a driver object the child
    still holds cannot close a descriptor the worker opened later
    under a reused number.
    """
    try:
        names = os.listdir("/dev/fd")
    except OSError:
        candidates = range(3, os.sysconf("SC_OPEN_MAX"))
    else:
        candidates = [int(name) for name in names]
    inherited = []
    for fd in candidates:
        if fd <= 2 or fd in keep:
            continue
        try:
            os.fstat(fd)
        except OSError:  # not open (or the listing's own descriptor)
            continue
        inherited.append(fd)
    return inherited


def _exit_without_driver(driver: int) -> None:
    """End the forked worker once ``driver`` is no longer its parent."""
    while os.getppid() == driver:
        time.sleep(DRIVER_POLL_INTERVAL)
    os._exit(0)


def launch_local_workers(
    count: int,
    cache_dir: Optional[str] = None,
    startup_timeout: float = STARTUP_TIMEOUT,
) -> List[WorkerHandle]:
    """Fork ``count`` loopback workers from this process; returns their handles."""
    starters = [
        (f"local-{index}", functools.partial(_fork_worker, f"local-{index}", cache_dir))
        for index in range(count)
    ]
    return _launch(starters, startup_timeout)


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
