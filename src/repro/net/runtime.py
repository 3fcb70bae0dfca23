"""Process/task supervision for the networked deployment.

Pieces, smallest to largest:

* :func:`pump_until` / :func:`pump_forever` -- the per-process event
  loop: repeatedly pump a set of endpoints against their transport,
  either until a predicate holds or until a stop event.  A hostile frame
  that makes one pump raise is recorded and absorbed; a server process
  must outlive malformed input.
* :func:`wait_until_quiet` -- the networked analogue of
  :func:`repro.system.service.run_until_idle`: polls the broker's stats
  until nothing is queued (``pending``), nothing is unprocessed at any
  client (``in_flight``), and the delivery counter has stopped moving
  across a settle interval.  Lazy acks (see
  :mod:`repro.net.transport`) make this sound: an endpoint that is
  still chewing on a batch holds ``in_flight`` above zero.
* :class:`NodeThread` (``BrokerThread`` / ``RelayThread``) -- an
  in-process forwarding node on a background asyncio thread, for tests
  and benchmarks that want real sockets without subprocesses.
* :class:`ProcessSupervisor` -- spawns the ``python -m repro.net.*``
  entity servers as OS processes and shuts them down gracefully
  (terminate, wait, kill stragglers).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, ReproError, SystemError_
from repro.net.node import Node

__all__ = [
    "BrokerThread",
    "NodeThread",
    "ProcessSupervisor",
    "RelayThread",
    "StopRequested",
    "pump_forever",
    "pump_until",
    "wait_for_file",
    "wait_until_quiet",
]

#: Idle sleep between empty pump rounds (keeps loopback latency low
#: without spinning a core).
PUMP_IDLE_SLEEP = 0.005


class StopRequested(SystemError_):
    """A pump loop was interrupted by its stop event (SIGTERM/SIGINT)."""


def pump_until(
    endpoints: Sequence,
    predicate: Callable[[], bool],
    *,
    timeout: float = 30.0,
    idle_sleep: float = PUMP_IDLE_SLEEP,
    errors: Optional[List[ReproError]] = None,
    stop: Optional[threading.Event] = None,
) -> int:
    """Pump ``endpoints`` until ``predicate()`` holds; returns frames handled.

    Raises :class:`SystemError_` on timeout and :class:`StopRequested` if
    ``stop`` is set first (how the entity servers honour SIGTERM while in
    a lifecycle phase).  Endpoint errors (hostile frames) are appended to
    ``errors`` (if given) and pumping continues: the batch-requeue in
    ``pump`` already preserved the well-formed remainder.
    """
    deadline = time.monotonic() + timeout
    total = 0
    while True:
        progressed = 0
        for endpoint in endpoints:
            try:
                progressed += endpoint.pump()
            except ReproError as exc:
                if errors is not None:
                    errors.append(exc)
        total += progressed
        if predicate():
            return total
        if stop is not None and stop.is_set():
            raise StopRequested(
                "stopped before the condition held (%d frames handled)" % total
            )
        if time.monotonic() > deadline:
            raise SystemError_(
                "condition not reached within %.1fs (%d frames handled)"
                % (timeout, total)
            )
        if progressed == 0:
            time.sleep(idle_sleep)


def pump_forever(
    endpoints: Sequence,
    stop: threading.Event,
    *,
    idle_sleep: float = PUMP_IDLE_SLEEP,
    errors: Optional[List[ReproError]] = None,
) -> None:
    """Serve until ``stop`` is set (the long-running entity-server loop)."""
    while not stop.is_set():
        progressed = 0
        for endpoint in endpoints:
            try:
                progressed += endpoint.pump()
            except ReproError as exc:
                if errors is not None:
                    errors.append(exc)
        if progressed == 0:
            stop.wait(idle_sleep)


def wait_until_quiet(
    transport,
    endpoints: Sequence = (),
    *,
    settle: float = 0.1,
    timeout: float = 30.0,
    errors: Optional[List[ReproError]] = None,
):
    """Wait for broker quiescence; returns the final stats.

    Quiet means: broker ``pending == 0``, client ``in_flight == 0``, and
    ``delivered_total`` unchanged across one ``settle`` interval.  Local
    ``endpoints`` are pumped while waiting, so a caller that is itself an
    entity (e.g. the publisher answering registrations) keeps serving --
    with the same absorb-hostile-frames contract as the other pump loops
    (a garbage frame arriving mid-wait must not kill a server process).
    """
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() <= deadline:
        for endpoint in endpoints:
            try:
                endpoint.pump()
            except ReproError as exc:
                if errors is not None:
                    errors.append(exc)
        # Between pump rounds nothing polled is mid-processing locally, so
        # acking everything owed is sound -- and necessary, or an idle
        # entity would hold the broker's in_flight count up forever.
        if hasattr(transport, "flush_acks"):
            transport.flush_acks()
        stats = transport.stats()
        quiet_now = (
            stats.pending == 0
            and stats.in_flight == 0
            and transport.pending() == 0
        )
        if (
            quiet_now
            and last is not None
            and last.delivered_total == stats.delivered_total
        ):
            return stats
        last = stats if quiet_now else None
        time.sleep(settle if quiet_now else PUMP_IDLE_SLEEP)
    raise SystemError_("broker did not quiesce within %.1fs" % timeout)


def wait_for_file(path: str, timeout: float = 30.0, poll: float = 0.05) -> str:
    """Block until ``path`` exists and is non-empty; returns its text."""
    deadline = time.monotonic() + timeout
    while time.monotonic() <= deadline:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                content = handle.read()
            if content:
                return content
        time.sleep(poll)
    raise SystemError_("file %r did not appear within %.1fs" % (path, timeout))


class NodeThread:
    """A :class:`~repro.net.node.Node` on a dedicated asyncio thread.

    Gives tests/benchmarks real TCP sockets without subprocess overhead::

        with BrokerThread() as broker:
            with RelayThread("r1", broker.host, broker.port) as relay:
                transport = TcpTransport(broker.host, broker.port)
                transport.set_attach_point("sub-0", relay.host, relay.port)
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **node_kw):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="NodeThread-%s" % (node_kw.get("relay_id") or "root"),
            daemon=True,
        )
        self._thread.start()
        self.node = Node(host, port, **node_kw)
        future = asyncio.run_coroutine_threadsafe(self.node.start(), self._loop)
        try:
            self.host, self.port = future.result(10.0)
        except Exception:
            self._stop_loop()
            raise

    @property
    def endpoint(self) -> Tuple[str, int]:
        return self.host, self.port

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10.0)
        if not self._thread.is_alive():  # (never close a loop still running)
            # Releases the selector and the self-pipe: three descriptors
            # per helper that otherwise live as long as the process.
            self._loop.close()

    def stop(self) -> None:
        if self._loop.is_closed():
            return  # already stopped
        try:
            asyncio.run_coroutine_threadsafe(
                self.node.aclose(), self._loop
            ).result(10.0)
        finally:
            self._stop_loop()

    def __enter__(self) -> "NodeThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


#: The root of a tree: a node with no upstream.
BrokerThread = NodeThread


def RelayThread(
    relay_id: str,
    upstream_host: str,
    upstream_port: int,
    host: str = "127.0.0.1",
    port: int = 0,
    **node_kw,
) -> NodeThread:
    """A node below ``upstream_host:upstream_port``, for tests that chain
    hops in-process."""
    upstream = (upstream_host, upstream_port)
    return NodeThread(host, port, relay_id=relay_id, upstream=upstream, **node_kw)


class ProcessSupervisor:
    """Spawn and gracefully stop the networked entity processes.

    Child output goes to per-process log files (not pipes: a pipe nobody
    drains deadlocks a chatty child once the ~64 KiB buffer fills), read
    back for diagnostics on failure.
    """

    def __init__(self):
        self.processes: List[Tuple[str, subprocess.Popen]] = []
        self._logdir = tempfile.mkdtemp(prefix="repro-supervisor-")
        self._logs: List[Tuple[str, "io.TextIOWrapper"]] = []

    def spawn_module(
        self, module: str, *args: str, name: Optional[str] = None, **popen_kw
    ) -> subprocess.Popen:
        """Launch ``python -m <module> <args...>`` as a child process."""
        name = name or module
        log_path = os.path.join(
            self._logdir, "%02d-%s.log" % (len(self.processes), name)
        )
        log = open(log_path, "w+", encoding="utf-8")
        popen_kw.setdefault("stdout", log)
        popen_kw.setdefault("stderr", subprocess.STDOUT)
        env = popen_kw.pop("env", None) or dict(os.environ)
        process = subprocess.Popen(
            [sys.executable, "-m", module, *args], env=env, **popen_kw
        )
        self.processes.append((name, process))
        self._logs.append((name, log))
        return process

    def output(self, name: str, tail: int = 4000) -> str:
        """The (current) tail of a child's combined stdout+stderr."""
        for log_name, log in self._logs:
            if log_name == name:
                log.flush()
                with open(log.name, "r", encoding="utf-8") as handle:
                    return handle.read()[-tail:]
        raise SystemError_("no supervised process named %r" % name)

    def assert_alive(self) -> None:
        """Fail loudly if any supervised process died already."""
        for name, process in self.processes:
            code = process.poll()
            if code is not None and code != 0:
                raise NetworkError(
                    "process %s exited with %d:\n%s"
                    % (name, code, self.output(name))
                )

    def wait(self, name: str, timeout: float = 120.0) -> int:
        """Wait for the named process to exit; returns its code."""
        for pname, process in self.processes:
            if pname == name:
                return process.wait(timeout)
        raise SystemError_("no supervised process named %r" % name)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Terminate every live child; kill whatever ignores it."""
        for _, process in self.processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + timeout
        for _, process in self.processes:
            if process.poll() is None:
                try:
                    process.wait(max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(5.0)
        for _, log in self._logs:
            log.close()
        shutil.rmtree(self._logdir, ignore_errors=True)

    def __enter__(self) -> "ProcessSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
