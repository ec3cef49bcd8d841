"""Shared asyncio front of every daemon in this repo.

Both network daemons — the single-box classification daemon
(:class:`~repro.service.server.ClassificationService`) and the fabric
router (:class:`~repro.fabric.router.RouterService`) — speak the same
two sniffed protocols on one TCP port: pipelined NDJSON lines and
one-shot HTTP/1.0.  :class:`LineProtocolServer` owns everything that is
identical between them:

* listener lifecycle (bind, graceful drain on SIGTERM/SIGINT, the
  parseable ready/exit banner lines);
* connection tracking and teardown;
* NDJSON framing — one reply task per line, bounded in-flight replies
  so a write-only client cannot grow the daemon's buffers, and one
  ``write`` per event-loop tick carrying every reply line the
  connection's tasks queued in it (flushed before the connection
  closes; HTTP responses are written directly);
* the request front — parse, trace (``decode`` and ``reply`` spans),
  count, resolve, reply — for NDJSON lines and for the HTTP routes
  ``GET /v1/stats``, ``GET /v1/trace/recent``, ``POST /v1/classify``
  and ``POST /v1/match``;
* HTTP framing — request line, headers, bounded body, the ``/metrics``
  Prometheus text special case;
* the typed-error reject path, which counts every rejected request;
* the ``stats`` block: a readout of the process-global
  :func:`repro.obs.registry`, the same series ``GET /metrics`` renders.

Subclasses set :attr:`~LineProtocolServer.tracer` and provide the
*meaning* of a request via these hooks:

``_resolve(request, trace)``
    answer one parsed request other than ``stats``;
``_healthz()``
    the ``GET /healthz`` body;
``_stats_snapshot()``
    extend the registry readout with the subclass's own blocks;
``_drain()``
    subclass-specific backlog drain, run after the listener closed and
    before connections are torn down.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time

from repro import obs
from repro.service import protocol
from repro.service.protocol import (
    HTTP_METHODS,
    HTTP_STATUS_BY_ERROR,
    MAX_LINE_BYTES,
    REQUEST_OPS,
    ProtocolError,
    Request,
)

__all__ = ["LineProtocolServer", "best_effort_id", "query_int"]

#: Most un-replied requests one connection may have in flight; beyond it
#: the read loop pauses until a reply completes.  Together with the
#: per-reply ``drain()`` this bounds the daemon's memory per connection
#: even against a client that pipelines forever without reading.
MAX_INFLIGHT_REPLIES = 1024


class _ReplyLines:
    """The NDJSON reply lines of one connection not yet written.

    The first line queued in an event-loop tick schedules a flush for
    the next one, so the replies of one coalescer batch (or one burst of
    routed replies) leave in a single ``write``.
    """

    __slots__ = ("writer", "lines")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lines: list[bytes] = []

    def put(self, line: bytes) -> None:
        if not self.lines:
            asyncio.get_running_loop().call_soon(self.flush)
        self.lines.append(line)

    def flush(self) -> None:
        lines, self.lines = self.lines, []
        transport = self.writer.transport
        if lines and transport is not None and not transport.is_closing():
            self.writer.write(b"".join(lines))

    def close(self) -> None:
        """Write what is queued, then close the connection."""
        self.flush()
        self.writer.close()


_REG = obs.registry()
_REQUESTS = _REG.counter(
    "repro_service_requests_total", "Accepted requests by op.", labels=("op",)
)
_ERRORS = _REG.counter(
    "repro_service_errors_total", "Error replies by type.", labels=("type",)
)
_LATENCY = _REG.histogram(
    "repro_service_request_seconds",
    "End-to-end request latency, protocol decode to reply write.",
)


class LineProtocolServer:
    """One TCP listener speaking sniffed NDJSON + HTTP/1.0."""

    #: Ops an NDJSON request line may name.
    allowed_ops: tuple[str, ...] = REQUEST_OPS
    #: The counter every accepted request increments, by op.
    requests_counter: obs.Counter = _REQUESTS
    #: Per-request traces; subclasses build it with their sampling knobs.
    tracer: obs.Tracer

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        #: Every open connection's queue of unwritten NDJSON replies.
        self._replies: dict[asyncio.StreamWriter, _ReplyLines] = {}
        self._stopping = asyncio.Event()
        self.started = time.monotonic()

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    async def _resolve(
        self, request: Request, trace=None
    ) -> dict | protocol.EncodedOk:
        """The result payload of one request other than ``stats``."""
        raise NotImplementedError

    def _healthz(self) -> dict:
        """The ``GET /healthz`` body."""
        raise NotImplementedError

    async def _drain(self) -> None:
        """Answer the backlog during :meth:`stop` (subclass-specific)."""

    def _ready_message(self) -> str:
        return f"listening on {self.address}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self._requested_port,
            limit=MAX_LINE_BYTES + 2,
        )

    async def stop(self) -> None:
        """Graceful drain: close listener, answer backlog, drop connections."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
        await self._drain()
        # Closing the transports feeds EOF to every connection reader, so
        # handlers exit their read loops normally — cancellation is only
        # the fallback for a handler that still hasn't finished.
        for replies in list(self._replies.values()):
            replies.close()
        if self._connections:
            _done, pending = await asyncio.wait(
                list(self._connections), timeout=5.0
            )
            if pending:
                # A client that stopped reading keeps close() from ever
                # flushing, and its reply writes wait in drain() for good:
                # drop the unsent bytes so those writes fail.
                for writer in list(self._replies):
                    writer.transport.abort()
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Last, not right after close(): from Python 3.12.1 on,
        # wait_closed() returns only once every connection has dropped,
        # so awaited earlier it blocks on any idle client for good.
        if self._server is not None:
            await self._server.wait_closed()

    async def serve_forever(self, ready_message: bool = True) -> None:
        """Run until SIGTERM/SIGINT, then drain and return.

        ``ready_message`` prints one parseable line on stdout once the
        socket is bound — the CLI, the CI smoke jobs, the chaos harness
        and the drain tests all key off it.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._on_signal)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        if ready_message:
            print(self._ready_message(), flush=True)
        try:
            await self._stopping.wait()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except NotImplementedError:  # pragma: no cover
                    pass
            await self.stop()
            if ready_message:
                print("drained, bye", flush=True)

    def _on_signal(self) -> None:
        """First SIGTERM/SIGINT starts the drain; repeats are ignored
        (the drain is already as fast as the backlog allows)."""
        self._stopping.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        replies = self._replies[writer] = _ReplyLines(writer)
        try:
            try:
                first = await self._read_line(reader)
            except ProtocolError as exc:
                await self._reject_line(replies, None, exc)
                return
            if first is None:
                return
            if any(first.startswith(verb) for verb in HTTP_METHODS):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_ndjson(first, reader, replies)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass  # client went away / drain cancelled the connection
        finally:
            self._replies.pop(writer, None)
            replies.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                asyncio.CancelledError,
            ):
                # CancelledError only lands here when a drain cancelled a
                # straggler mid-close; the coroutine ends either way.
                pass

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes | None:
        """One line, or ``None`` on EOF; typed error when over the limit."""
        try:
            line = await reader.readline()
        except ValueError:
            raise ProtocolError(
                "payload_too_large",
                f"request line exceeds {MAX_LINE_BYTES} bytes",
            ) from None
        return line if line else None

    # -------------------------- NDJSON path ---------------------------

    async def _serve_ndjson(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        replies: _ReplyLines,
    ) -> None:
        tasks: set[asyncio.Task] = set()
        line: bytes | None = first
        try:
            while line is not None:
                if line.strip():
                    task = asyncio.ensure_future(self._answer_line(replies, line))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                    if len(tasks) >= MAX_INFLIGHT_REPLIES:
                        # Stop reading until the client consumes replies:
                        # reply tasks block on drain(), so a client that
                        # writes but never reads parks here instead of
                        # growing the daemon's buffers.
                        await asyncio.wait(
                            tasks, return_when=asyncio.FIRST_COMPLETED
                        )
                try:
                    line = await self._read_line(reader)
                except ProtocolError as exc:
                    # Framing is lost beyond an oversized line: reply,
                    # then hang up instead of guessing where it ends.
                    await self._reject_line(replies, None, exc)
                    return
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            replies.flush()
            try:
                await replies.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _answer_line(self, replies: _ReplyLines, line: bytes) -> None:
        """Resolve one NDJSON request line and write its reply line."""
        t0 = asyncio.get_running_loop().time()
        trace = self.tracer.start("?", transport="ndjson")
        decode_start = time.perf_counter()
        try:
            request = protocol.parse_request(line, allowed_ops=self.allowed_ops)
        except ProtocolError as exc:
            if trace is not None:
                trace.op = "invalid"
                trace.annotate(error=exc.error_type)
                self.tracer.finish(trace)
            await self._reject_line(replies, best_effort_id(line), exc)
            return
        if trace is not None:
            trace.op = request.op
            trace.add_span("decode", decode_start, time.perf_counter())
        try:
            result = await self._answer(request, trace, t0)
        except ProtocolError as exc:
            await self._reject_line(replies, request.id, exc)
            return
        reply_start = time.perf_counter()
        if isinstance(result, protocol.EncodedOk):
            line = result.line(request.id)
        else:
            line = protocol.encode_line(
                protocol.ok_reply(request.id, request.op, result)
            )
        await self._reply(replies, line)
        if trace is not None:
            trace.add_span("reply", reply_start, time.perf_counter())
            self.tracer.finish(trace)

    async def _answer(
        self, request: Request, trace, t0: float
    ) -> dict | protocol.EncodedOk:
        """Count, resolve and time one parsed request (both fronts).

        A failure finishes the trace and propagates; the caller's reject
        path counts the error.
        """
        self.requests_counter.inc(op=request.op)
        try:
            if request.op == "stats":
                result = self._stats_snapshot()
            else:
                result = await self._resolve(request, trace)
        except ProtocolError as exc:
            if trace is not None:
                trace.annotate(error=exc.error_type)
                self.tracer.finish(trace)
            raise
        _LATENCY.observe(asyncio.get_running_loop().time() - t0)
        return result

    async def _reject_line(
        self,
        replies: _ReplyLines,
        request_id: object,
        exc: ProtocolError,
    ) -> None:
        _ERRORS.inc(type=exc.error_type)
        await self._reply(replies, protocol.encode_line(
            protocol.error_reply(request_id, exc.error_type, exc.message)
        ))

    async def _reply(self, replies: _ReplyLines, line: bytes) -> None:
        """Queue one reply line + drain (flow control against slow readers).

        The drain waits while the transport's buffer is above its high
        water mark, so at most one tick of queued lines lands on a
        client that does not read.
        """
        replies.put(line)
        if replies.writer.transport.is_closing():
            return
        try:
            await replies.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; the read loop will see EOF

    async def _write(self, writer: asyncio.StreamWriter, payload: bytes) -> None:
        """One whole HTTP response write + drain."""
        if writer.transport is None or writer.transport.is_closing():
            return
        writer.write(payload)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; the read loop will see EOF

    # --------------------------- HTTP path -----------------------------

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        try:
            method, path, body = await self._read_http(request_line, reader)
            path, _, query = path.partition("?")
            if method == "GET" and path == "/metrics":
                # Prometheus text exposition, not JSON: bypass the dict
                # routing and write the rendered registry directly.
                await self._write(
                    writer,
                    protocol.http_text_response(200, obs.registry().render()),
                )
                return
            status, payload = await self._route_http(
                method, path, body, t0, query
            )
        except ProtocolError as exc:
            _ERRORS.inc(type=exc.error_type)
            status = HTTP_STATUS_BY_ERROR[exc.error_type]
            payload = {"error": {"type": exc.error_type, "message": exc.message}}
        await self._write(writer, protocol.http_response(status, payload))

    async def _route_http(
        self, method: str, path: str, body: bytes, t0: float, query: str = ""
    ) -> tuple[int, dict]:
        """Resolve one HTTP request to ``(status, json_payload)``."""
        if method == "GET" and path == "/healthz":
            return 200, self._healthz()
        if method == "GET" and path == "/v1/stats":
            return 200, await self._answer(Request(op="stats"), None, t0)
        if method == "GET" and path == "/v1/trace/recent":
            limit = query_int(query, "limit", default=50)
            return 200, {
                "traces": self.tracer.recent(limit),
                "slow": self.tracer.slow_recent(limit),
                "tracer": self.tracer.snapshot(),
            }
        if method == "POST" and path in ("/v1/classify", "/v1/match"):
            op = path.rsplit("/", 1)[1]
            try:
                data = json.loads(body.decode() or "null")
            except (UnicodeDecodeError, ValueError):
                raise ProtocolError("bad_request", "body is not valid JSON")
            if not isinstance(data, dict):
                raise ProtocolError("bad_request", "body must be a JSON object")
            table = protocol.parse_table_payload(data)
            trace = self.tracer.start(op, transport="http")
            request = Request(op=op, id=data.get("id"), table=table)
            result = await self._answer(request, trace, t0)
            if isinstance(result, protocol.EncodedOk):
                result = result.result()
            self.tracer.finish(trace)
            return 200, {"ok": True, "op": op, "result": result}
        raise ProtocolError("bad_request", f"no route for {method} {path}")

    async def _read_http(
        self, request_line: bytes, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            method, path, _version = request_line.decode().split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise ProtocolError("bad_request", "malformed HTTP request line")
        content_length = 0
        while True:
            header = await self._read_line(reader)
            if header is None or header in (b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise ProtocolError("bad_request", "bad Content-Length")
        if content_length > MAX_LINE_BYTES:
            raise ProtocolError(
                "payload_too_large",
                f"body exceeds {MAX_LINE_BYTES} bytes",
            )
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
        return method.upper(), path, body

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _stats_snapshot(self) -> dict:
        """The ``stats`` block: a readout of the process-global registry.

        Every count equals the ``/metrics`` series it is read from, so
        the figures are process-wide.  Batch, cache and mint series
        belong to other layers and are looked up by name, the way a
        scraper reads them; importing :mod:`repro.service` registers
        them all.  Latency quantiles are histogram estimates over the
        process lifetime (:meth:`~repro.obs.Histogram.quantile`).
        """
        requests = _by_label(self.requests_counter)
        errors = _by_label(_ERRORS)
        batch_sizes = _REG.get("repro_service_batch_size")
        series = batch_sizes.series()
        batches, batched = series["count"], int(series["sum"])
        lookups = _REG.get("repro_cache_match_lookups_total")
        hits = int(lookups.value(result="hit"))
        misses = int(lookups.value(result="miss"))
        minted = _REG.get("repro_library_classes_minted_total")
        p50, p99 = _LATENCY.quantile(0.50), _LATENCY.quantile(0.99)
        # Every successful reply is timed once, so the latency count is
        # the reply count.
        replies = _LATENCY.series()["count"]
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "requests_total": sum(requests.values()),
            "requests_by_op": requests,
            "replies_ok": replies,
            "errors_total": sum(errors.values()),
            "errors_by_type": errors,
            "batches": batches,
            "batched_requests": batched,
            "mean_batch_size": round(batched / batches, 3) if batches else 0.0,
            "max_batch_size": int(batch_sizes.quantile(1.0) or 0),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (
                round(hits / (hits + misses), 4) if hits + misses else 0.0
            ),
            "classes_minted": int(minted.value()),
            "latency_p50_ms": None if p50 is None else round(p50 * 1e3, 3),
            "latency_p99_ms": None if p99 is None else round(p99 * 1e3, 3),
            "latency_samples": replies,
        }


def _by_label(counter: obs.Counter) -> dict[str, int]:
    """A one-label counter as ``{label value: count}``."""
    return {key[0]: int(value) for key, value in counter.items()}


def query_int(query: str, name: str, default: int) -> int:
    """``limit=N``-style query parameter, tolerant of junk."""
    for part in query.split("&"):
        key, sep, value = part.partition("=")
        if sep and key == name:
            try:
                return max(0, int(value))
            except ValueError:
                raise ProtocolError(
                    "bad_request", f"query parameter {name} must be an integer"
                ) from None
    return default


def best_effort_id(line: bytes) -> object:
    """Recover an ``id`` from a rejected request so the client can map it."""
    try:
        data = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(data, dict):
        value = data.get("id")
        if isinstance(value, (str, int, float)) or value is None:
            return value
    return None
