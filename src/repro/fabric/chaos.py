"""Fault injection for the fabric: spawn a fleet, then hurt it.

:class:`ChaosFleet` runs a router and N workers as real subprocesses —
the same ``python -m repro router|worker`` entry points operators use —
and exposes the fault injections the soak tests and benchmarks drive:

* :meth:`kill` — SIGKILL, the impolite death (no drain notice; the
  router finds out from dead channels and missed heartbeats);
* :meth:`stall` / :meth:`resume` — SIGSTOP/SIGCONT, the gray failure:
  the process is alive, its socket accepts, nothing answers.  This is
  what per-request timeouts exist for;
* :meth:`term` — SIGTERM, the polite death: drain notice, backlog
  answered, clean exit (drain-aware failover).

Every daemon's ready banner is parsed for its bound port, so fleets run
entirely on ``port 0`` and never collide.  After the banner, a
background thread drains each daemon's output into a bounded tail
buffer, so a chatty daemon can never fill its pipe and block in
``write()``.  ``stop_all`` is defensive teardown: SIGCONT + SIGTERM
everyone, then SIGKILL stragglers — a crashed test must not leak
processes (the CI fabric-smoke job asserts exactly that).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque

__all__ = ["ChaosFleet", "ManagedDaemon", "wait_until"]

#: Seconds a daemon gets to print its ready banner.
READY_TIMEOUT_S = 30.0

#: Lines of each daemon's output kept after its banner.
OUTPUT_TAIL_LINES = 1000


def wait_until(predicate, timeout_s: float, interval_s: float = 0.05) -> bool:
    """Poll ``predicate()`` until truthy or ``timeout_s`` elapses."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return bool(predicate())


class ManagedDaemon:
    """One spawned daemon: its process, parsed address, and fault knobs."""

    def __init__(self, name: str, process: subprocess.Popen, ready: str) -> None:
        self.name = name
        self.process = process
        self.ready_line = ready
        # Every banner ends "... on host:port" (possibly followed by a
        # parenthesised suffix); take the last host:port token.
        token = [
            piece for piece in ready.replace("(", " ").split()
            if ":" in piece and piece.rsplit(":", 1)[1].isdigit()
        ][-1]
        host, _, port_text = token.rpartition(":")
        self.host = host
        self.port = int(port_text)
        self._tail: deque[str] = deque(maxlen=OUTPUT_TAIL_LINES)
        self._drainer = threading.Thread(
            target=self._drain, name=f"drain-{name}", daemon=True
        )
        self._drainer.start()

    def _drain(self) -> None:
        """Read the daemon's output to EOF, keeping only the tail."""
        stdout = self.process.stdout
        if stdout is None:
            return
        with stdout:
            for line in stdout:
                self._tail.append(line)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    @property
    def pid(self) -> int:
        return self.process.pid

    # ------------------------- fault injection -------------------------

    def kill(self) -> None:
        """SIGKILL: instant, impolite, no drain."""
        self._signal(signal.SIGKILL)
        self.process.wait()

    def stall(self) -> None:
        """SIGSTOP: the gray failure — alive but answering nothing."""
        self._signal(signal.SIGSTOP)

    def resume(self) -> None:
        """SIGCONT: undo :meth:`stall`."""
        self._signal(signal.SIGCONT)

    def term(self) -> None:
        """SIGTERM: ask for a graceful drain (does not wait)."""
        self._signal(signal.SIGTERM)

    def _signal(self, signum: int) -> None:
        try:
            self.process.send_signal(signum)
        except ProcessLookupError:
            pass  # lost the race with the process's own exit

    def wait(self, timeout_s: float = 30.0) -> int:
        return self.process.wait(timeout=timeout_s)

    def join_output(self, timeout_s: float = 5.0) -> None:
        """Wait for the drainer to reach EOF (the process has exited)."""
        self._drainer.join(timeout_s)

    def output(self) -> str:
        """The last :data:`OUTPUT_TAIL_LINES` lines printed after the banner.

        Complete once the process has exited; while it runs, whatever has
        been drained so far.
        """
        if not self.alive:
            self.join_output()
        return "".join(list(self._tail))  # snapshot: the drainer appends

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else f"exit={self.process.returncode}"
        return f"ManagedDaemon({self.name!r}, {self.address}, {state})"


class ChaosFleet:
    """A router + worker fleet of real subprocesses, built to be hurt.

    Args:
        library_dir: the saved library every worker shards.
        ring: worker ids forming the ring (``["w0", "w1", "w2"]``).
        router_args / worker_args: extra CLI flags appended to every
            spawn (e.g. ``["--timeout-ms", "500"]``).
    """

    def __init__(
        self,
        library_dir: str,
        ring,
        router_args=(),
        worker_args=(),
    ) -> None:
        self.library_dir = str(library_dir)
        self.ring = tuple(ring)
        self.router_args = tuple(router_args)
        self.worker_args = tuple(worker_args)
        self.router: ManagedDaemon | None = None
        self.workers: dict[str, ManagedDaemon] = {}

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _spawn(self, name: str, argv, expect: str) -> ManagedDaemon:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "..")
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + existing if existing else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        assert process.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{name} exited before its ready banner "
                    f"(rc={process.poll()})"
                )
            if expect in line:
                return ManagedDaemon(name, process, line.strip())
            if time.monotonic() > deadline:
                process.kill()
                raise RuntimeError(f"{name} never printed {expect!r}")

    def start_router(self, **knobs) -> ManagedDaemon:
        argv = ["router", "--port", "0", *self.router_args]
        for flag, value in knobs.items():
            argv += [f"--{flag.replace('_', '-')}", str(value)]
        self.router = self._spawn("router", argv, "routing on")
        return self.router

    def start_worker(self, worker_id: str, **knobs) -> ManagedDaemon:
        if self.router is None:
            raise RuntimeError("start_router() first (workers need its address)")
        argv = [
            "worker",
            "--id", worker_id,
            "--ring", ",".join(self.ring),
            "--library", self.library_dir,
            "--router", self.router.address,
            "--port", "0",
            *self.worker_args,
        ]
        for flag, value in knobs.items():
            argv += [f"--{flag.replace('_', '-')}", str(value)]
        daemon = self._spawn(f"worker:{worker_id}", argv, "serving")
        self.workers[worker_id] = daemon
        return daemon

    def start(self, **router_knobs) -> "ChaosFleet":
        """Router plus the whole ring of workers."""
        self.start_router(**router_knobs)
        for worker_id in self.ring:
            self.start_worker(worker_id)
        return self

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def stop_all(self, timeout_s: float = 30.0) -> None:
        """Polite drain of the whole fleet, SIGKILL for stragglers."""
        daemons = list(self.workers.values())
        if self.router is not None:
            daemons.append(self.router)
        for daemon in daemons:
            if daemon.alive:
                # A stalled process cannot drain; wake it first.
                daemon.resume()
                daemon.term()
        deadline = time.monotonic() + timeout_s
        for daemon in daemons:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                daemon.wait(remaining)
            except subprocess.TimeoutExpired:
                daemon.kill()
        for daemon in daemons:
            daemon.join_output()
        self.workers.clear()
        self.router = None

    def __enter__(self) -> "ChaosFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_all()
