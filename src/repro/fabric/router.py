"""The fabric router: one client-facing daemon fronting many workers.

:class:`RouterService` speaks the exact client protocol of a single
classification daemon — NDJSON lines and the HTTP/1.0 front, same ops,
same error taxonomy — so every existing client, the CLI, and the smoke
jobs work against it unchanged.  Behind that front it routes:

1. a table op's **shard key** is the hashed flat MSV row of the query
   (:func:`~repro.fabric.ring.shard_key_of` — NPN-invariant, so a query
   hashes exactly where its class lives).  Keys are computed per
   event-loop tick, not per request: every table op queued in one tick
   shares one vectorized :class:`BatchedClassifier` pass (mixed arities
   included), flushed by a ``call_soon`` callback that resolves each
   request's future;
2. the consistent-hash ring names the key's owner and replica workers;
3. the request is dispatched over the owner's pipelined channel, where
   concurrent requests to the same shard coalesce into burst writes the
   worker's micro-batcher folds into packed engine passes;
4. the reply is re-associated by request id and written back under the
   client's own id.

Robustness is the point, and it is layered:

* **timeouts** — every dispatch attempt has a deadline
  (:class:`RetryPolicy.timeout_ms`); a stalled worker costs one
  deadline, never a hung client;
* **retries** — failed attempts (timeout, dead channel, retryable
  worker error) back off with capped-exponential + full-jitter delays.
  Each attempt goes to the first routable owner (ALIVE before SUSPECT)
  this request has not tried yet, or to the first routable owner once
  all were tried.  After a failure that is the replica holding the same
  shard, so the answer is the same verified witness;
* **drain-aware failover** — a worker's SIGTERM drain notice stops new
  routing instantly while its in-flight backlog finishes on the still-
  open channel;
* **degraded mode** — a ring gap (all owners of a shard dead) fails
  fast with the typed ``shard_unavailable`` error instead of hanging.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time

from repro import obs
from repro.core.truth_table import TruthTable
from repro.engine.classifier import BatchedClassifier
from repro.fabric.backoff import RetryPolicy
from repro.fabric.channel import ChannelClosed, DispatchTimeout, WorkerChannel
from repro.fabric.registry import DEFAULT_HEARTBEAT_INTERVAL_S, WorkerRegistry
from repro.fabric.ring import HashRing, shard_key_of
from repro.service.base import LineProtocolServer
from repro.service.protocol import (
    ERROR_TYPES,
    FABRIC_OPS,
    REQUEST_OPS,
    ProtocolError,
    Request,
)
from repro.service.server import (
    DEFAULT_SLOW_MS,
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_SAMPLE,
)

__all__ = ["RouterService", "DEFAULT_ROUTER_PORT", "RETRYABLE_WORKER_ERRORS"]

DEFAULT_ROUTER_PORT = 8455

#: Worker error replies worth re-dispatching (transient by nature);
#: everything else (bad_request, internal, ...) propagates unchanged.
RETRYABLE_WORKER_ERRORS = ("overloaded", "shutting_down")

#: Router-side ops: everything a daemon accepts, plus the control plane.
ROUTER_OPS = REQUEST_OPS + FABRIC_OPS

_REG = obs.registry()
_ROUTED = _REG.counter(
    "repro_fabric_requests_total",
    "Client requests entering the router, by op.",
    labels=("op",),
)
_DISPATCHES = _REG.counter(
    "repro_fabric_dispatches_total",
    "Dispatch attempts to workers, by outcome (ok, worker_error, "
    "timeout, channel_closed).",
    labels=("outcome",),
)
_RETRIES = _REG.counter(
    "repro_fabric_retries_total",
    "Re-dispatches after a failed attempt, by failure reason.",
    labels=("reason",),
)
_DEGRADED = _REG.counter(
    "repro_fabric_degraded_total",
    "Requests refused with shard_unavailable (ring gap, degraded mode).",
)
_SHARD_KEY_SECONDS = _REG.histogram(
    "repro_fabric_shard_key_seconds",
    "Batched shard-key passes (one per event-loop tick with table ops).",
)
_SHARD_KEY_BATCH = _REG.histogram(
    "repro_fabric_shard_key_batch_size",
    "Requests keyed per batched shard-key pass.",
    buckets=obs.BATCH_SIZE_BUCKETS,
)
_DISPATCH_SECONDS = _REG.histogram(
    "repro_fabric_dispatch_seconds",
    "Per-attempt worker round-trip latency.",
    labels=("worker",),
)


class RouterService(LineProtocolServer):
    """Front-end router + worker registry + consistent-hash dispatch.

    It counts its requests in ``repro_fabric_requests_total`` instead of
    the daemon's ``repro_service_requests_total``, so a process hosting
    both counts each request once.

    Args:
        host/port: client-facing bind address.
        policy: dispatch :class:`RetryPolicy` (attempts, backoff,
            per-attempt timeout).
        heartbeat_interval_s: the cadence workers are told to beat at
            (see :class:`WorkerRegistry`).
        trace_sample / slow_ms: request tracing knobs, mirroring the
            serving daemon's.
    """

    allowed_ops = ROUTER_OPS
    requests_counter = _ROUTED

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_ROUTER_PORT,
        policy: RetryPolicy | None = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
        slow_ms: float = DEFAULT_SLOW_MS,
    ) -> None:
        super().__init__(host=host, port=port)
        self.policy = policy if policy is not None else RetryPolicy()
        self.registry = WorkerRegistry(
            heartbeat_interval_s=heartbeat_interval_s
        )
        self.tracer = obs.Tracer(
            capacity=DEFAULT_TRACE_CAPACITY,
            slow_ms=slow_ms,
            sample_every=trace_sample,
        )
        self.ring: HashRing | None = None
        self.channels: dict[str, WorkerChannel] = {}
        #: Table ops waiting for this tick's batched shard-key pass.
        self._key_queue: list[tuple[TruthTable, asyncio.Future]] = []
        self._sweeper: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle (LineProtocolServer hooks)
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._sweeper = asyncio.ensure_future(self._sweep_loop())

    async def _drain(self) -> None:
        """Answer in-flight dispatches, then drop the worker channels."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            await asyncio.gather(self._sweeper, return_exceptions=True)
            self._sweeper = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.policy.worst_case_s() + 1.0
        while (
            any(ch.inflight for ch in self.channels.values())
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.02)
        for channel in self.channels.values():
            await channel.close()

    def _ready_message(self) -> str:
        return f"routing on {self.address}"

    async def _sweep_loop(self) -> None:
        """Apply the missed-heartbeat ladder at twice the beat cadence."""
        interval = self.registry.heartbeat_interval_s / 2.0
        while True:
            await asyncio.sleep(interval)
            self.registry.sweep()

    # --------------------------- HTTP path -----------------------------

    def _healthz(self) -> dict:
        counts = self.registry.counts()
        return {
            "status": "ok" if counts["alive"] else "degraded",
            "role": "router",
            "address": self.address,
            "workers": counts,
            "ring": self.ring.spec() if self.ring else None,
        }

    async def _route_http(
        self, method: str, path: str, body: bytes, t0: float, query: str = ""
    ) -> tuple[int, dict]:
        if method == "GET" and path == "/v1/ring":
            return 200, {
                "ring": self.ring.spec() if self.ring else None,
                "registry": self.registry.snapshot(),
            }
        return await super()._route_http(method, path, body, t0, query)

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------

    async def _resolve(self, request: Request, trace=None) -> dict:
        if request.op == "ping":
            return {
                "pong": True,
                "role": "router",
                "workers": self.registry.counts(),
            }
        if request.op in FABRIC_OPS:
            return self._control(request)
        return await self._route_table_op(request, trace)

    # ------------------------ control plane ----------------------------

    def _control(self, request: Request) -> dict:
        data = request.raw or {}
        if request.op == "register":
            return self._register(data)
        worker_id = data.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            raise ProtocolError(
                "bad_request", f"{request.op} needs a string 'worker_id'"
            )
        if request.op == "heartbeat":
            return {"known": self.registry.heartbeat(worker_id)}
        # drain
        known = self.registry.drain(worker_id)
        return {"draining": known, "known": known}

    def _register(self, data: dict) -> dict:
        worker = data.get("worker")
        if not isinstance(worker, dict):
            raise ProtocolError(
                "bad_request", "register needs a 'worker' object"
            )
        worker_id = worker.get("worker_id")
        address = worker.get("address")
        ring_spec = worker.get("ring")
        if not isinstance(worker_id, str) or not worker_id:
            raise ProtocolError("bad_request", "worker needs a 'worker_id'")
        if not isinstance(address, str) or ":" not in address:
            raise ProtocolError(
                "bad_request", "worker needs an 'address' of form host:port"
            )
        if not isinstance(ring_spec, dict):
            raise ProtocolError("bad_request", "worker needs a 'ring' spec")
        try:
            ring = HashRing.from_spec(ring_spec)
        except ValueError as exc:
            raise ProtocolError("bad_request", str(exc))
        if worker_id not in ring.nodes:
            raise ProtocolError(
                "bad_request",
                f"worker {worker_id!r} is not on its own ring {ring.nodes}",
            )
        if self.ring is None:
            # First registration pins the fabric's shape; everyone after
            # must agree, or shard ownership would diverge between the
            # router's routing and the workers' loaded shards.
            self.ring = ring
        elif ring.spec() != self.ring.spec():
            raise ProtocolError(
                "bad_request",
                f"ring mismatch: router has {self.ring.spec()}, "
                f"worker {worker_id!r} announced {ring.spec()}",
            )
        capabilities = {
            key: worker.get(key)
            for key in ("arities", "classes", "learning", "pid")
            if key in worker
        }
        self.registry.register(worker_id, address, capabilities)
        stale = self.channels.get(worker_id)
        if stale is not None and stale.address != address:
            # The worker restarted elsewhere: drop the stale channel so
            # the next dispatch dials the new address.
            self.channels.pop(worker_id, None)
            asyncio.ensure_future(stale.close())
        return {
            "registered": True,
            "workers": self.registry.counts(),
            "heartbeat_interval_s": self.registry.heartbeat_interval_s,
        }

    # ------------------------- data plane ------------------------------

    def _shard_key(self, table: TruthTable) -> asyncio.Future:
        """The table's shard key, from this tick's batched pass."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if not self._key_queue:
            loop.call_soon(self._flush_shard_keys)
        self._key_queue.append((table, future))
        return future

    def _flush_shard_keys(self) -> None:
        """Key every table op queued this tick in one vectorized pass.

        Futures whose requests were cancelled meanwhile are skipped; if
        the pass fails, every request of the tick answers a typed
        ``internal`` error and the next tick starts afresh.
        """
        queued, self._key_queue = self._key_queue, []
        pending = [(table, fut) for table, fut in queued if not fut.done()]
        if not pending:
            return
        t0 = time.perf_counter()
        try:
            rows = BatchedClassifier().signatures(
                [table for table, _ in pending]
            )
            # Hashed here rather than through ring.shard_keys: one call
            # of this module's shard_key_of per routed request is what
            # perfbench's traced run counts against the
            # repro_fabric_requests_total series.
            keys = [
                shard_key_of(table.n, row)
                for (table, _), row in zip(pending, rows)
            ]
        except Exception as exc:  # engine bug — fail the tick, not the router
            logging.getLogger("repro.fabric.router").exception(
                "shard-key pass over %d requests failed", len(pending)
            )
            message = f"shard-key pass failed: {exc!r}"
            for _, future in pending:
                future.set_exception(ProtocolError("internal", message))
            return
        finally:
            _SHARD_KEY_SECONDS.observe(time.perf_counter() - t0)
            _SHARD_KEY_BATCH.observe(len(pending))
        for (_, future), key in zip(pending, keys):
            future.set_result(key)

    async def _route_table_op(self, request: Request, trace=None) -> dict:
        route_start = time.perf_counter()
        key = await self._shard_key(request.table)
        if self.ring is None:
            _DEGRADED.inc()
            raise ProtocolError(
                "shard_unavailable",
                "no workers have registered with this router yet",
            )
        owners = self.ring.owners(key)
        if trace is not None:
            trace.add_span(
                "route",
                route_start,
                time.perf_counter(),
                {"shard": key, "owners": ",".join(owners)},
            )
        payload = {
            "op": request.op,
            "table": f"0x{request.table.to_hex()}",
            "n": request.table.n,
        }
        delays = self.policy.delays()
        dispatch_start = time.perf_counter()
        failure: str = ""
        failure_kind: str = "unavailable"
        tried: set[str] = set()
        for attempt in range(self.policy.attempts):
            routable = self.registry.routable(owners)
            if not routable:
                _DEGRADED.inc()
                raise ProtocolError(
                    "shard_unavailable",
                    f"no live worker holds shard {key} "
                    f"(owners: {', '.join(owners)}); degraded until one "
                    f"re-registers",
                )
            worker = next((w for w in routable if w not in tried), routable[0])
            tried.add(worker)
            try:
                reply = await self._dispatch_to(
                    worker, payload, self.policy.timeout_s
                )
            except DispatchTimeout as exc:
                failure, failure_kind, reason = str(exc), "timeout", "timeout"
            except ChannelClosed as exc:
                failure, failure_kind = str(exc), "unavailable"
                reason = "channel_closed"
            else:
                if reply.get("ok"):
                    if trace is not None:
                        trace.add_span(
                            "dispatch",
                            dispatch_start,
                            time.perf_counter(),
                            {"worker": worker, "attempts": attempt + 1},
                        )
                    return reply.get("result", {})
                error = reply.get("error", {})
                error_type = error.get("type", "internal")
                message = error.get("message", "")
                if error_type not in RETRYABLE_WORKER_ERRORS:
                    raise ProtocolError(
                        error_type if error_type in ERROR_TYPES else "internal",
                        f"worker {worker}: {message}",
                    )
                failure = f"worker {worker}: [{error_type}] {message}"
                failure_kind, reason = "unavailable", error_type
            if attempt + 1 < self.policy.attempts:
                # Only a re-dispatch is a retry; the last failure is not.
                _RETRIES.inc(reason=reason)
                await asyncio.sleep(next(delays))
        raise ProtocolError(
            failure_kind,
            f"shard {key} gave no answer after {self.policy.attempts} "
            f"attempts; last failure: {failure}",
        )

    async def _dispatch_to(
        self, worker_id: str, payload: dict, timeout: float | None
    ) -> dict:
        channel = self._channel(worker_id)
        t0 = time.perf_counter()
        try:
            reply = await channel.request(payload, timeout)
        except ChannelClosed:
            _DISPATCHES.inc(outcome="channel_closed")
            # A dead channel is evidence of a dead worker well before the
            # heartbeat ladder notices.
            self.registry.mark_suspect(worker_id)
            raise
        except DispatchTimeout:
            _DISPATCHES.inc(outcome="timeout")
            self.registry.mark_suspect(worker_id)
            raise
        finally:
            _DISPATCH_SECONDS.observe(
                time.perf_counter() - t0, worker=worker_id
            )
        _DISPATCHES.inc(
            outcome="ok" if reply.get("ok") else "worker_error"
        )
        return reply

    def _channel(self, worker_id: str) -> WorkerChannel:
        address = self.registry.address_of(worker_id)
        if address is None:
            raise ChannelClosed(f"worker {worker_id} is not registered")
        channel = self.channels.get(worker_id)
        if channel is None or channel.address != address or channel._closed:
            if channel is not None:
                asyncio.ensure_future(channel.close())
            channel = WorkerChannel(
                worker_id,
                address,
                connect_timeout=self.policy.timeout_s or 5.0,
            )
            self.channels[worker_id] = channel
        return channel

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _stats_snapshot(self) -> dict:
        snapshot = super()._stats_snapshot()
        snapshot["identity"] = self.identity()
        snapshot["fabric"] = {
            "retries": int(sum(value for _, value in _RETRIES.items())),
            "degraded": int(_DEGRADED.value()),
            "channels": {
                worker_id: {
                    "connected": channel.connected,
                    "inflight": channel.inflight,
                }
                for worker_id, channel in sorted(self.channels.items())
            },
        }
        snapshot["ring"] = self.ring.spec() if self.ring else None
        snapshot["registry"] = self.registry.snapshot()
        return snapshot

    def identity(self) -> dict:
        return {
            "pid": os.getpid(),
            "role": "router",
            "address": self.address,
            "transports": ["ndjson", "http/1.0"],
            "policy": {
                "attempts": self.policy.attempts,
                "base_ms": self.policy.base_ms,
                "cap_ms": self.policy.cap_ms,
                "timeout_ms": self.policy.timeout_ms,
            },
            "workers": self.registry.counts(),
        }
