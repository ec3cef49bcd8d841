"""The fabric router: one client-facing daemon fronting many workers.

:class:`RouterService` speaks the exact client protocol of a single
classification daemon — NDJSON lines and the HTTP/1.0 front, same ops,
same error taxonomy — so every existing client, the CLI, and the smoke
jobs work against it unchanged.  Behind that front it routes:

1. a table op's **shard key** is the hashed flat MSV row of the query
   (:func:`~repro.fabric.ring.shard_key_of` — NPN-invariant, so a query
   hashes exactly where its class lives).  Keys are computed per socket
   read, not per request: the front hands over every parsed request of
   one read, and all its table ops share one vectorized
   :class:`BatchedClassifier` pass (mixed arities included);
2. the consistent-hash ring names the key's owner and replica workers;
3. the request is queued on the owner's pipelined channel at once, in
   the same pass, and a done-callback on the reply's future answers it:
   no coroutine runs unless the first attempt fails.  Requests queued
   to one shard in one tick leave as one burst write, which the
   worker's micro-batcher folds into packed engine passes;
4. the channel re-associates the reply by request id; an ok reply is
   relayed as the worker's bytes, its id field swapped for the
   client's own id, without decoding or re-encoding the result (an
   error reply is decoded and mapped onto the router's taxonomy).

Robustness is the point, and it is layered:

* **timeouts** — every dispatch attempt has a deadline
  (:class:`RetryPolicy.timeout_ms`); a stalled worker costs one
  deadline, never a hung client;
* **retries** — failed attempts (timeout, dead channel, retryable
  worker error) back off with capped-exponential + full-jitter delays,
  in the one coroutine of the data path (:meth:`RouterService._retry`).
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
import functools
import itertools
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
    EncodedOk,
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
    "Batched shard-key passes (one per socket read with table ops).",
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


class _Routed:
    """One routed table op across its dispatch attempts."""

    __slots__ = (
        "key", "owners", "payload", "trace", "future", "tried", "attempts",
        "sent", "dispatch_start", "failure", "kind", "reason",
    )

    def __init__(self, request: Request, key: str, owners, trace) -> None:
        self.key = key
        self.owners = owners
        self.payload = {
            "op": request.op,
            "table": f"0x{request.table.to_hex()}",
            "n": request.table.n,
        }
        self.trace = trace
        self.future = asyncio.get_running_loop().create_future()
        #: Workers tried, in order; the last is the current attempt's.
        self.tried: list[str] = []
        self.attempts = 0
        #: When the first attempt and the current one were sent.
        self.dispatch_start = self.sent = 0.0
        #: The last failure: its message, error type and retry reason.
        self.failure, self.kind, self.reason = "", "unavailable", ""

    def failed(self, failure: str, kind: str, reason: str) -> None:
        self.failure, self.kind, self.reason = failure, kind, reason


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

    def _resolve(self, request: Request, trace=None) -> dict:
        """Answer ``ping`` and the control plane; table ops are routed
        by :meth:`_resolve_all`."""
        if request.op == "ping":
            return {
                "pong": True,
                "role": "router",
                "workers": self.registry.counts(),
            }
        return self._control(request)

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

    def _resolve_all(self, requests: list[Request], traces: list) -> list:
        """Key every table op of one read in one pass, then route each."""
        tables = [r.table for r in requests if r.table is not None]
        if not tables:
            return super()._resolve_all(requests, traces)
        route_start = time.perf_counter()
        keys = self._shard_keys(tables)
        if isinstance(keys, ProtocolError):
            keys = itertools.repeat(keys)
        keys = iter(keys)
        results = []
        for request, trace in zip(requests, traces):
            if request.table is None:
                results.append(self._resolve_one(request, trace))
                continue
            key = next(keys)
            results.append(
                key if isinstance(key, ProtocolError)
                else self._route(request, key, trace, route_start)
            )
        return results

    def _shard_keys(self, tables: list[TruthTable]) -> list[str] | ProtocolError:
        """The shard keys of ``tables``, from one vectorized pass.

        If the pass fails, every table of it answers a typed
        ``internal`` error and the next read starts afresh.
        """
        t0 = time.perf_counter()
        try:
            rows = BatchedClassifier().signatures(tables)
            # Hashed here rather than through ring.shard_keys: one call
            # of this module's shard_key_of per routed request is what
            # perfbench's traced run counts against the
            # repro_fabric_requests_total series.
            return [
                shard_key_of(table.n, row) for table, row in zip(tables, rows)
            ]
        except Exception as exc:  # engine bug — fail the read, not the router
            logging.getLogger("repro.fabric.router").exception(
                "shard-key pass over %d requests failed", len(tables)
            )
            return ProtocolError("internal", f"shard-key pass failed: {exc!r}")
        finally:
            _SHARD_KEY_SECONDS.observe(time.perf_counter() - t0)
            _SHARD_KEY_BATCH.observe(len(tables))

    def _route(
        self, request: Request, key: str, trace, route_start: float
    ) -> asyncio.Future | ProtocolError:
        """Send one keyed table op to its shard; its reply's future.

        The first attempt is dispatched here and finished by a callback;
        only a failed attempt starts a coroutine (:meth:`_retry`).
        """
        if self.ring is None:
            _DEGRADED.inc()
            return ProtocolError(
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
        call = _Routed(request, key, owners, trace)
        call.dispatch_start = time.perf_counter()
        try:
            reply = self._send(call)
        except ProtocolError as exc:
            return exc
        except ChannelClosed as exc:
            call.failed(str(exc), "unavailable", "channel_closed")
            self._after_failure(call)
        else:
            reply.add_done_callback(functools.partial(self._first_reply, call))
        return call.future

    def _send(self, call: "_Routed") -> asyncio.Future:
        """Dispatch the next attempt of ``call``: the worker reply's future.

        The attempt goes to the first routable owner (ALIVE before
        SUSPECT) the call has not tried yet, or to the first routable
        owner once all were tried.
        """
        routable = self.registry.routable(call.owners)
        if not routable:
            _DEGRADED.inc()
            raise ProtocolError(
                "shard_unavailable",
                f"no live worker holds shard {call.key} "
                f"(owners: {', '.join(call.owners)}); degraded until one "
                f"re-registers",
            )
        worker = next((w for w in routable if w not in call.tried), routable[0])
        call.tried.append(worker)
        call.attempts += 1
        channel = self._channel(worker)
        call.sent = time.perf_counter()
        return channel.request(call.payload, self.policy.timeout_s)

    def _first_reply(self, call: "_Routed", reply: asyncio.Future) -> None:
        """Done-callback of a first attempt: relay it or start retrying."""
        try:
            answer = self._outcome(call, reply)
        except Exception as exc:  # the worker's own refusal (ProtocolError)
            call.future.set_exception(exc)
            return
        if answer is not None:
            self._answered(call, answer)
        else:
            self._after_failure(call)

    def _after_failure(self, call: "_Routed") -> None:
        """Retry a failed first attempt, or fail the call if it was the only one."""
        if self.policy.attempts > 1:
            asyncio.ensure_future(self._retry(call))
        else:
            call.future.set_exception(self._exhausted(call))

    async def _retry(self, call: "_Routed") -> None:
        """Re-dispatch ``call`` after a failed attempt, with backoff.

        After a failure that is the replica holding the same shard, so
        the answer is the same verified witness.
        """
        delays = self.policy.delays()
        try:
            while call.attempts < self.policy.attempts:
                # Only a re-dispatch is a retry; the last failure is not.
                _RETRIES.inc(reason=call.reason)
                await asyncio.sleep(next(delays))
                try:
                    reply = self._send(call)
                except ChannelClosed as exc:
                    call.failed(str(exc), "unavailable", "channel_closed")
                    continue
                await asyncio.wait((reply,))
                answer = self._outcome(call, reply)
                if answer is not None:
                    self._answered(call, answer)
                    return
            call.future.set_exception(self._exhausted(call))
        except Exception as exc:  # a refusal ends the retries (ProtocolError)
            call.future.set_exception(exc)

    def _outcome(
        self, call: "_Routed", reply: asyncio.Future
    ) -> EncodedOk | None:
        """Account one finished attempt: its ok reply, or ``None`` once
        a retryable failure is noted on ``call``.

        A worker error that is not worth a retry raises as the client's
        :class:`ProtocolError`.
        """
        worker = call.tried[-1]
        _DISPATCH_SECONDS.observe(time.perf_counter() - call.sent, worker=worker)
        error = reply.exception()
        if isinstance(error, DispatchTimeout):
            _DISPATCHES.inc(outcome="timeout")
            self.registry.mark_suspect(worker)
            call.failed(str(error), "timeout", "timeout")
            return None
        if isinstance(error, ChannelClosed):
            _DISPATCHES.inc(outcome="channel_closed")
            # A dead channel is evidence of a dead worker well before the
            # heartbeat ladder notices.
            self.registry.mark_suspect(worker)
            call.failed(str(error), "unavailable", "channel_closed")
            return None
        if error is not None:
            raise error
        answer = reply.result()
        if isinstance(answer, EncodedOk):
            _DISPATCHES.inc(outcome="ok")
            return answer
        _DISPATCHES.inc(outcome="worker_error")
        error = answer.get("error", {})
        error_type = error.get("type", "internal")
        message = error.get("message", "")
        if error_type not in RETRYABLE_WORKER_ERRORS:
            raise ProtocolError(
                error_type if error_type in ERROR_TYPES else "internal",
                f"worker {worker}: {message}",
            )
        call.failed(
            f"worker {worker}: [{error_type}] {message}", "unavailable",
            error_type,
        )
        return None

    def _answered(self, call: "_Routed", answer: EncodedOk) -> None:
        if call.trace is not None:
            call.trace.add_span(
                "dispatch",
                call.dispatch_start,
                time.perf_counter(),
                {"worker": call.tried[-1], "attempts": call.attempts},
            )
        call.future.set_result(answer)

    def _exhausted(self, call: "_Routed") -> ProtocolError:
        return ProtocolError(
            call.kind,
            f"shard {call.key} gave no answer after {self.policy.attempts} "
            f"attempts; last failure: {call.failure}",
        )

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
