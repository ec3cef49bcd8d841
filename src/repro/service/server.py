"""The asyncio classification daemon: load a library once, serve forever.

:class:`ClassificationService` binds one TCP port and speaks both wire
protocols of :mod:`repro.service.protocol` — the first request line is
sniffed, so ``nc`` + NDJSON and ``curl /healthz`` hit the same address.
The socket and request front (framing, connection lifecycle,
drain-on-signal, counting, tracing, the ``stats`` readout) lives in
:class:`~repro.service.base.LineProtocolServer`, shared with the fabric
router; this module supplies the request *meaning*.  Requests flow::

    connection reader ──> parse ──> Coalescer.submit ──> packed batch
                                                            │
    connection writer <── reply <── future resolves <───────┘

Each NDJSON line becomes its own reply task, so a pipelined client keeps
many requests in flight on one connection — exactly the traffic shape
the coalescer amortises.

Shutdown is a drain, not a drop: SIGTERM/SIGINT stop the listener,
already-accepted requests are batched and answered, then connections
close and :meth:`serve_forever` returns.  A second signal is ignored
(the drain is already as fast as the backlog allows).
"""

from __future__ import annotations

import os

from repro import obs
from repro.library.store import ClassLibrary
from repro.service.base import MAX_INFLIGHT_REPLIES, LineProtocolServer
from repro.service.coalescer import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    DEFAULT_MAX_WAIT_MS,
    Coalescer,
)
from repro.service import protocol
from repro.service.protocol import Request

__all__ = [
    "ClassificationService",
    "DEFAULT_PORT",
    "DEFAULT_SLOW_MS",
    "DEFAULT_TRACE_SAMPLE",
    "MAX_INFLIGHT_REPLIES",
]

DEFAULT_PORT = 8355

#: Requests slower than this land in the slow-request log (``--slow-ms``
#: overrides; ``<= 0`` disables the slow log, traces still record).
DEFAULT_SLOW_MS = 250.0

#: Finished per-request traces retained for ``GET /v1/trace/recent``.
DEFAULT_TRACE_CAPACITY = 256

#: Head-sample span detail to every N-th request by default.  Trace and
#: span allocation is the dominant observability cost on a saturated
#: pipelined workload (perfbench's ``obs.tracing_overhead`` prices it);
#: ``serve --trace-sample 1`` opts into tracing every request.
DEFAULT_TRACE_SAMPLE = 8


class ClassificationService(LineProtocolServer):
    """One daemon: a listener, a coalescer, and a loaded class library.

    Args:
        library: the :class:`ClassLibrary` all queries resolve against
            (loaded once — the whole point of the daemon).
        host/port: bind address; ``port=0`` picks a free port (see
            :attr:`port` after :meth:`start`).
        max_batch / max_wait_ms / max_pending / cache_size:
            coalescer knobs, see :class:`Coalescer`.
        learner: a :class:`~repro.library.online.LearningLibrary`
            wrapping ``library`` — attaches learn-on-miss minting and
            the drain-time WAL compaction (``serve --learn``).
        slow_ms: requests slower than this (end-to-end) are kept in the
            slow-request ring and logged (``serve --slow-ms``; ``<= 0``
            disables the slow log).
        trace_capacity: bound of the recent-trace ring served by
            ``GET /v1/trace/recent``.
        trace_sample: head-sample span detail to every N-th request
            (``serve --trace-sample``; ``1`` traces every request).
    """

    def __init__(
        self,
        library: ClassLibrary,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_pending: int = DEFAULT_MAX_PENDING,
        cache_size: int = 1 << 16,
        learner=None,
        slow_ms: float = DEFAULT_SLOW_MS,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
    ) -> None:
        super().__init__(host=host, port=port)
        self.library = library
        self.tracer = obs.Tracer(
            capacity=trace_capacity,
            slow_ms=slow_ms,
            sample_every=trace_sample,
        )
        self.coalescer = Coalescer(
            library,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
            cache_size=cache_size,
            learner=learner,
        )

    # ------------------------------------------------------------------
    # Lifecycle (LineProtocolServer hooks)
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and launch the coalescer worker."""
        self.coalescer.start()
        await super().start()

    async def _drain(self) -> None:
        await self.coalescer.stop()

    def _ready_message(self) -> str:
        return (
            f"serving {self.library.num_classes} classes on {self.address}"
        )

    # ------------------------------------------------------------------
    # Request resolution (shared by both fronts)
    # ------------------------------------------------------------------

    async def _resolve(self, request: Request, trace=None) -> dict:
        if request.op == "ping":
            return {"pong": True, "classes": self.library.num_classes}
        future = self.coalescer.submit(request.op, request.table, trace)
        if request.op == "match":
            outcome, cached = await future
            return protocol.match_payload(request.table, outcome, cached)
        class_id, known = await future
        return protocol.classify_payload(request.table, class_id, known)

    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "classes": self.library.num_classes,
            "arities": list(self.library.arities()),
            "address": self.address,
            "draining": self.coalescer.closing,
            "learning": self.coalescer.learner is not None,
        }

    def _stats_snapshot(self) -> dict:
        """The registry readout plus WAL state and this daemon's identity."""
        snapshot = super()._stats_snapshot()
        if self.coalescer.learner is not None:
            snapshot["learning"] = self.coalescer.learner.stats()
        snapshot["identity"] = self.identity()
        return snapshot

    def identity(self) -> dict:
        """Who this worker is — fleet debugging tells daemons apart by it."""
        return {
            "pid": os.getpid(),
            "address": self.address,
            "transports": ["ndjson", "http/1.0"],
            "classes": self.library.num_classes,
            "learning": self.coalescer.learner is not None,
            "slow_ms": self.tracer.slow_ms,
            "trace_sample": self.tracer.sample_every,
        }

