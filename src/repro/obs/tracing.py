"""Per-request tracing: spans, traces, and a bounded recent-trace ring.

A :class:`Trace` is created when the daemon decodes a request and is
carried (via the coalescer's pending entry) through every stage the
request touches: protocol decode, coalescer queue wait, the batch's
signature pass, matcher, canonical search, learn-on-miss, and the reply
write.  Each stage appends a :class:`Span` — a named ``[start, end)``
interval on the process-local ``perf_counter`` clock plus optional
metadata (batch size, cache hit, minted class id).

Finished traces land in a :class:`Tracer` ring buffer (bounded deque;
old traces fall off, memory stays O(capacity)) served by
``GET /v1/trace/recent``.  Traces slower than the tracer's ``slow_ms``
threshold are additionally kept in a separate slow ring and logged via
``logging.getLogger("repro.obs.slow")`` so operators see outliers
without polling.  Slow-log *emission* is rate-limited (one line per
``log_interval_s``, with a suppressed count) — a backlog that pushes
every tail request over the threshold must not become a log storm.

Threading model: spans for one trace are appended from at most one
thread at a time (event loop, then the coalescer's single executor
thread, then the loop again — each handoff is through an awaited
future, which orders the memory accesses), so ``Trace`` itself needs no
lock.  The ``Tracer`` rings are appended from the loop but read from
test threads and CLI snapshots, so they take a lock.
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
import time
from collections import deque

__all__ = ["Span", "Trace", "Tracer"]

_LOG = logging.getLogger("repro.obs.slow")

_TRACE_SEQ = itertools.count(1)


class Span:
    """One named stage of a request: ``[start, end)`` in perf-counter s.

    ``meta`` is kept by reference (callers hand over fresh dicts) and is
    ``None`` when absent — per-span defensive copies and empty-dict
    allocations are measurable as GC pressure at service request rates.
    """

    __slots__ = ("name", "start", "end", "meta")

    def __init__(self, name: str, start: float, end: float, meta=None):
        self.name = name
        self.start = start
        self.end = end
        self.meta = meta or None

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self, origin: float) -> dict:
        """JSON form with times as ms offsets from the trace origin."""
        out = {
            "name": self.name,
            "start_ms": (self.start - origin) * 1e3,
            "duration_ms": self.duration_ms,
        }
        if self.meta:
            out["meta"] = self.meta
        return out


class Trace:
    """All spans of one request, identified by a process-unique id."""

    __slots__ = (
        "_seq",
        "op",
        "started_unix",
        "origin",
        "spans",
        "meta",
        "duration_ms",
    )

    def __init__(self, op: str, meta=None) -> None:
        self._seq = next(_TRACE_SEQ)
        self.op = op
        self.started_unix = time.time()
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self.meta = meta or {}  # by reference; start() hands over a fresh dict
        self.duration_ms: float | None = None  # set by Tracer.finish

    @property
    def trace_id(self) -> str:
        """Process-unique id, formatted lazily (ids are read rarely,
        created per request)."""
        return f"{os.getpid():x}-{self._seq:06x}"

    def add_span(self, name: str, start: float, end: float, meta=None) -> Span:
        """Record a stage measured externally (perf-counter endpoints).

        ``meta``, when given, is a dict the span takes ownership of — a
        positional argument rather than ``**kwargs`` so meta-less calls
        (the common case) allocate nothing.
        """
        span = Span(name, start, end, meta)
        self.spans.append(span)
        return span

    def span(self, name: str, meta=None) -> "_SpanTimer":
        """``with trace.span("match"):`` — times the block as a span."""
        return _SpanTimer(self, name, meta)

    def annotate(self, **meta) -> None:
        self.meta.update(meta)

    def as_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "op": self.op,
            "started_unix": self.started_unix,
            "duration_ms": self.duration_ms,
            "spans": [span.as_dict(self.origin) for span in self.spans],
        }
        if self.meta:
            out["meta"] = self.meta
        return out


class _SpanTimer:
    __slots__ = ("_trace", "_name", "_meta", "_start")

    def __init__(self, trace: Trace, name: str, meta) -> None:
        self._trace = trace
        self._name = name
        self._meta = meta

    def __enter__(self) -> "_SpanTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._trace.add_span(
            self._name, self._start, time.perf_counter(), self._meta
        )


class Tracer:
    """Bounded ring of finished traces plus a slow-request side ring.

    ``slow_ms <= 0`` disables the slow log (every trace still enters the
    main ring).  ``sample_every=N`` head-samples span detail to every
    N-th request — on a saturated pipelined workload, per-request trace
    and span allocation is the dominant observability cost, so the
    daemon defaults to sampling and ``--trace-sample 1`` opts into full
    tracing.  An unsampled request gets ``None`` from :meth:`start`;
    instrumentation sites treat a ``None`` trace as "don't record", so
    the hot path pays one branch.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_ms: float = 250.0,
        slow_capacity: int = 64,
        log_interval_s: float = 1.0,
        sample_every: int = 1,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace ring capacity must be >= 1: {capacity}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        self.slow_ms = float(slow_ms)
        self.log_interval_s = float(log_interval_s)
        self.sample_every = int(sample_every)
        self._traces: deque[Trace] = deque(maxlen=capacity)
        self._slow: deque[Trace] = deque(maxlen=max(1, slow_capacity))
        self._lock = threading.Lock()
        self.started_total = 0
        self.finished_total = 0
        self.slow_total = 0
        self._arrivals = 0
        self._last_log = float("-inf")
        self._suppressed = 0

    def start(self, op: str, **meta) -> Trace | None:
        """A new trace for this request, or ``None`` if not sampled.

        Head sampling: with ``sample_every=N``, every N-th request (the
        first included) gets span detail; the rest return ``None``, which
        every instrumentation site treats as "don't record".  Metrics
        still see *all* requests — sampling only thins span detail, the
        measurably expensive part of the hot path.
        """
        if self.sample_every > 1:
            # Only ever called from the daemon's event-loop thread; a
            # plain counter is deliberate (no lock on the unsampled path).
            self._arrivals += 1
            if (self._arrivals - 1) % self.sample_every:
                return None
        self.started_total += 1
        return Trace(op, meta)

    def finish(self, trace: Trace | None) -> None:
        if trace is None:
            return
        now = time.perf_counter()
        trace.duration_ms = (now - trace.origin) * 1e3
        is_slow = self.slow_ms > 0 and trace.duration_ms >= self.slow_ms
        suppressed = 0
        emit = False
        with self._lock:
            self._traces.append(trace)
            self.finished_total += 1
            if is_slow:
                self._slow.append(trace)
                self.slow_total += 1
                # Rate-limit the warning, never the ring: a burst of slow
                # requests (a pipelined backlog pushes every tail request
                # over the threshold) must not turn into a log storm that
                # itself dominates the hot path.
                if now - self._last_log >= self.log_interval_s:
                    emit = True
                    suppressed, self._suppressed = self._suppressed, 0
                    self._last_log = now
                else:
                    self._suppressed += 1
        if emit:
            _LOG.warning(
                "slow request %s op=%s took %.1fms (threshold %.1fms)%s: %s",
                trace.trace_id,
                trace.op,
                trace.duration_ms,
                self.slow_ms,
                f" [+{suppressed} suppressed]" if suppressed else "",
                ", ".join(
                    f"{s.name}={s.duration_ms:.1f}ms" for s in trace.spans
                ),
            )

    def recent(self, limit: int = 50) -> list[dict]:
        """Most recent finished traces, newest first."""
        with self._lock:
            traces = list(self._traces)
        return [t.as_dict() for t in reversed(traces[-max(0, limit) :])]

    def slow_recent(self, limit: int = 50) -> list[dict]:
        """Most recent slow traces, newest first."""
        with self._lock:
            traces = list(self._slow)
        return [t.as_dict() for t in reversed(traces[-max(0, limit) :])]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": self._traces.maxlen,
                "stored": len(self._traces),
                "sample_every": self.sample_every,
                "started_total": self.started_total,
                "finished_total": self.finished_total,
                "slow_ms": self.slow_ms,
                "slow_total": self.slow_total,
            }
