"""Shared machinery of the benchmark: paths, processes, clients, statistics.

Nothing here knows about a particular workload.  The pieces are:

* :func:`checkout_root` / :func:`source_dir` — where the program under test
  lives, relative to this file (the benchmark never looks outside the
  checkout it was started from);
* :func:`fingerprint` — host and run identity recorded in every report;
* :class:`Daemon` — one spawned ``python -m repro ...`` process (or the
  traced launcher), with its ready-banner time, CPU time and peak RSS;
* :class:`PipelinedClient` — the closed-loop load generator: one
  connection, a sender and a receiver thread, and a bounded window of
  outstanding requests;
* Prometheus text parsing for ``/metrics`` deltas, and the quantile
  helpers every metric is reduced with.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Hash seed of every spawned process, so set and dict iteration orders
#: (and with them batch composition) repeat from run to run.
HASH_SEED = "0"

#: Seconds a daemon gets to print its ready banner.
READY_TIMEOUT_S = 60.0


def checkout_root() -> Path:
    return HERE.parent


def source_dir() -> Path:
    return checkout_root() / "src"


def work_root() -> Path:
    """Working space of all runs, inside the checkout (ignored by git)."""
    return checkout_root() / ".perfbench_work"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the acceptance rule
    computes it (``statistics.quantiles(values, n=4)``)."""
    mid = median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, ((q3 - q1) / mid) if mid else float("inf")


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


class HostSpeed:
    """How fast the host runs, from a fixed probe.

    On a shared VM the same pure-Python loop runs 0.18–0.26 s back to
    back and drifts further over minutes, and every timing drifts with
    it.  The probe is interpreter work (dict and tuple operations) plus
    a small NumPy gather and sort, none of the program's code, so no
    change to the program moves it.  A *factor* is ``REFERENCE_S`` over
    a probe time: a time times the factor (a rate divided by it) reads
    as measured on a host where the probe takes ``REFERENCE_S``.

    :meth:`time` gives a call's factor from the probes right before and
    after it; they speak for a few seconds at most, so timed calls are
    kept short.
    """

    #: Probe time the scaled timings refer to (about the probe's median
    #: on the 2-core host the benchmark was tuned on).
    REFERENCE_S = 0.05

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._values = rng.integers(0, 1 << 62, size=1 << 16, dtype=numpy.int64)
        self._index = rng.integers(0, 1 << 16, size=1 << 16)
        self.probes: list[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(70_000):
            key = (i & 1023, (i >> 10) & 7)
            table[key] = table.get(key, 0) + i
            acc ^= hash(key)
        for _ in range(8):
            gathered = self._values[self._index]
            gathered.sort()
            acc += int(gathered[acc & 0xFF])
        elapsed = time.perf_counter() - t0
        self.probes.append(elapsed)
        return elapsed

    def time(self, fn, *args, **kwargs):
        """``(result, factor, (start, end))`` of one call of ``fn``."""
        before = self.probe()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, self.factor(before, self.probe()), (start, end)

    def factor(self, before: float, after: float) -> float:
        """The factor of a call timed between probes ``before`` and ``after``."""
        return self.REFERENCE_S / ((before + after) / 2)


# ----------------------------------------------------------------------
# Host and run fingerprint
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git (the
    benchmark may run from an export that is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: str, seed: int, seconds: int, **inputs) -> dict:
    """Identity of a run; :mod:`compare` refuses to compare across it.

    ``git_sha`` is recorded for provenance only — a before/after
    comparison is *meant* to differ in it.
    """
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(checkout_root()),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        **inputs,
    }


# ----------------------------------------------------------------------
# Process accounting (Linux /proc)
# ----------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM``: the process's peak resident set, MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Spawned daemons
# ----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(source_dir())
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


class Daemon:
    """One spawned daemon, timed from spawn to its ready banner.

    With ``spans_out`` the process starts through the traced launcher
    (:mod:`launch`) instead of ``python -m repro``: the same CLI, with
    timing wrappers installed first and spans written to ``spans_out``
    at exit.  stdout is drained by a thread for the whole life of the
    process, so a chatty daemon can never block on a full pipe.
    """

    def __init__(self, name: str, argv, expect: str, workdir: Path,
                 spans_out: Path | None = None) -> None:
        self.name = name
        if spans_out is None:
            command = [sys.executable, "-u", "-m", "repro", *argv]
        else:
            command = [sys.executable, "-u", str(HERE / "launch.py"),
                       "--spans-out", str(spans_out), *argv]
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._expect = expect
        self.banner = ""
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=child_env(), cwd=str(workdir),
            text=True,
        )
        self.ready_at = None
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(READY_TIMEOUT_S) or self.ready_at is None:
            self.stop()
            raise RuntimeError(
                f"{name} printed no {expect!r} banner: {self.lines[-5:]}"
            )
        self.setup_s = self.ready_at - self.started
        token = [
            piece for piece in self.banner.replace("(", " ").split()
            if ":" in piece and piece.rsplit(":", 1)[1].isdigit()
        ][0]
        self.address = token

    def _drain(self) -> None:
        for line in self.process.stdout:
            if self.ready_at is None and self._expect in line:
                self.ready_at = time.perf_counter()
                self.banner = line.strip()
                self._ready.set()
            self.lines.append(line.rstrip("\n"))
        self._ready.set()  # EOF: wake a waiter that would otherwise hang

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self, timeout_s: float = 10.0) -> int:
        """SIGTERM (graceful drain), SIGKILL after ``timeout_s``; waits
        for the exit and for the stdout reader."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._reader.join(timeout=10.0)
        self.process.stdout.close()
        return code


def http_get(address: str, path: str) -> str:
    """Body of one ``GET`` against a daemon; anything but 200 raises."""
    from repro.service.client import http_get as get

    status, body = get(address, path)
    if status != 200:
        raise RuntimeError(f"GET {path} on {address} returned {status}")
    return body


# ----------------------------------------------------------------------
# Prometheus text
# ----------------------------------------------------------------------


def parse_prometheus(text: str) -> dict[tuple, float]:
    """``{(name, ((label, value), ...)): value}`` of every sample line."""
    samples: dict[tuple, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, rest = head.partition("{")
        labels = []
        if rest:
            for pair in rest.rstrip("}").split(","):
                if pair:
                    key, _, quoted = pair.partition("=")
                    labels.append((key, quoted.strip('"')))
        samples[(name, tuple(sorted(labels)))] = float(value)
    return samples


def series_total(samples: dict, name: str, **labels) -> float:
    """Sum of every series of ``name`` whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(
        value for (series, pairs), value in samples.items()
        if series == name and wanted <= set(pairs)
    )


def delta(before: dict, after: dict, name: str, **labels) -> float:
    return series_total(after, name, **labels) - series_total(
        before, name, **labels
    )


# ----------------------------------------------------------------------
# Closed-loop pipelined client
# ----------------------------------------------------------------------


_ID = re.compile(rb'"id":\s*(-?\d+)')
_SENTINEL_ID = -1
_SENTINEL = b'{"id": -1, "op": "ping"}\n'


class PipelinedClient:
    """One NDJSON connection with at most ``window`` requests outstanding.

    A sender thread writes request lines as window slots free up (in
    bursts, so a burst of replies is refilled by one write) and a
    receiver thread reads replies, timestamping each.  This is a closed
    loop: a slower system gets less offered load.  ``window`` stays
    below the daemon's ``--max-pending``, so no request is refused as
    ``overloaded``.
    """

    def __init__(self, address: str, window: int, timeout_s: float = 120.0):
        host, _, port = address.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.window = window

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "PipelinedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, lines: list[bytes], seconds: float | None = None):
        """Send ``lines`` (request ids are their indices) until all are
        sent or ``seconds`` have passed; wait for every reply.

        Returns ``(sent, replies, done_at)``: the number of lines sent,
        the reply dicts by request id (``None`` when the transport failed
        first), and each reply's arrival instant (``perf_counter``).
        """
        slots = threading.Semaphore(self.window)
        replies: list = [None] * len(lines)
        done_at: list = [None] * len(lines)
        state = {"sent": 0, "sending": True, "error": None}
        deadline = None if seconds is None else time.perf_counter() + seconds

        def send() -> None:
            index = 0
            try:
                while index < len(lines):
                    slots.acquire()
                    burst = 1
                    while (burst < 64 and index + burst < len(lines)
                           and slots.acquire(blocking=False)):
                        burst += 1
                    if deadline is not None and time.perf_counter() >= deadline:
                        break
                    self.sock.sendall(b"".join(lines[index:index + burst]))
                    index += burst
                    state["sent"] = index
            except OSError as exc:
                state["error"] = exc
            finally:
                state["sending"] = False
            # Replies may arrive out of order, so the receiver cannot
            # tell the last one apart; a trailing ping tells it that
            # nothing more was sent.
            if state["error"] is None:
                try:
                    self.sock.sendall(_SENTINEL)
                except OSError as exc:
                    state["error"] = exc

        def receive() -> None:
            count = 0
            closed = False
            try:
                while not (closed and count >= state["sent"]):
                    line = self.reader.readline()
                    if not line:
                        return
                    now = time.perf_counter()
                    # Only the id is read now; replies are decoded after
                    # the timed phase, so the client spends less CPU in it.
                    found = _ID.search(line)
                    rid = int(found.group(1)) if found else None
                    if rid == _SENTINEL_ID:
                        closed = True
                        continue
                    if rid is not None and 0 <= rid < len(lines):
                        replies[rid] = line
                        done_at[rid] = now
                    count += 1
                    slots.release()
            except OSError as exc:
                state["error"] = exc

        sender = threading.Thread(target=send)
        receiver = threading.Thread(target=receive)
        gc.disable()  # no collector pauses in the client while timing
        try:
            sender.start()
            receiver.start()
            sender.join()
            receiver.join()
        finally:
            gc.enable()
        self.error = state["error"]
        decoded = []
        for raw in replies:
            try:
                decoded.append(None if raw is None else json.loads(raw))
            except ValueError:
                decoded.append(None)
        return state["sent"], decoded, done_at

    def sequential(self, lines: list[bytes]) -> tuple[list, list[float]]:
        """One outstanding request at a time: ``(replies, rtt_ms)``."""
        replies, rtts = [], []
        for line in lines:
            t0 = time.perf_counter()
            self.sock.sendall(line)
            raw = self.reader.readline()
            rtts.append((time.perf_counter() - t0) * 1000.0)
            replies.append(json.loads(raw) if raw else None)
        return replies, rtts


def request_line(rid: int, table) -> bytes:
    return (
        f'{{"id": {rid}, "n": {table.n}, "op": "match", '
        f'"table": "0x{table.to_hex()}"}}\n'
    ).encode()


def slice_throughput(done_at: list, ok: list[bool], slice_size: int) -> list[float]:
    """Throughput of consecutive fixed-size slices of verified replies.

    Replies are ordered by arrival; each slice of ``slice_size``
    successful replies gives one sample (replies per second between the
    slice's first and last arrival).  The median of these is steadier
    than one whole-window rate, because ramp-up and drain fall into
    the outer slices.
    """
    stamps = sorted(t for t, good in zip(done_at, ok) if good and t is not None)
    rates = []
    for start in range(0, len(stamps) - slice_size, slice_size):
        span = stamps[start + slice_size] - stamps[start]
        if span > 0:
            rates.append(slice_size / span)
    return rates
