"""Pipelined NDJSON channel from the router to one worker daemon.

One :class:`WorkerChannel` per worker: a persistent connection carrying
many concurrent requests, re-associated by internal request id.
:meth:`WorkerChannel.request` queues a line and returns the request's
future at once; every line queued in one event-loop tick is a **burst**
that leaves in one ``write``, so concurrent client requests to the same
shard reach the worker as a coalesced burst of lines.  That burst is
exactly the traffic shape the worker's micro-batching coalescer folds
into a single packed engine pass: the router's fan-out and the worker's
batching compose without either knowing the other's internals.  The
read side splits each chunk the socket delivers into reply lines; no
task, ``readline``, ``drain`` or timer runs per request.

Failure semantics are strict so the router's retry loop stays simple:

* any transport error (reset, EOF, refused reconnect) fails **all**
  in-flight requests with :class:`ChannelClosed` and tears the channel
  down; the next :meth:`request` redials from scratch;
* a timeout abandons only the requests it covers (a reply, if it ever
  arrives, is dropped by id).  A burst's deadline is one
  ``loop.call_later`` timer, started with its write and cancelled once
  every request of the burst has its reply;
* the channel reads only a reply's id.  An ok reply comes back as an
  :class:`~repro.service.protocol.EncodedOk` the router relays under
  its client's id: a whole line in the fixed form the worker's
  ``encode_line`` writes (``{"id": N, "ok": true, ...``) is kept as
  its undecoded tail, and any other ok line is decoded and its result
  encoded once.  An error reply comes back as the decoded reply dict
  for the router to map onto its own taxonomy.  A line cut short of
  its newline (a worker killed mid-write) is never a reply: the
  connection's EOF fails it with :class:`ChannelClosed`.
"""

from __future__ import annotations

import asyncio
import json

from repro.service.protocol import MAX_LINE_BYTES, EncodedOk, split_ok_line

#: Most bytes one read of the reply stream takes.
READ_BYTES = 1 << 16

__all__ = ["WorkerChannel", "ChannelClosed", "DispatchTimeout"]


class ChannelClosed(ConnectionError):
    """The worker connection died (or could not be established)."""


class DispatchTimeout(TimeoutError):
    """One dispatched request missed its per-attempt deadline."""


class _Burst:
    """The requests of one write that share one deadline."""

    __slots__ = ("timeout", "ids", "left", "timer")

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self.ids: list[int] = []
        #: Requests of the burst still waiting for their reply.
        self.left = 0
        self.timer: asyncio.TimerHandle | None = None


class WorkerChannel:
    """One persistent, pipelined connection to a worker daemon."""

    def __init__(
        self,
        worker_id: str,
        address: str,
        connect_timeout: float = 5.0,
    ) -> None:
        self.worker_id = worker_id
        self.address = address
        self.connect_timeout = connect_timeout
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._connecting: asyncio.Task | None = None
        #: Lines of the burst not yet written, and its deadline groups.
        self._lines: list[bytes] = []
        self._bursts: dict[float, _Burst] = {}
        #: internal id -> (future, op, burst or None)
        self._pending: dict[int, tuple] = {}
        self._next_id = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._writer is not None

    @property
    def inflight(self) -> int:
        return len(self._pending)

    def request(self, payload: dict, timeout: float | None) -> asyncio.Future:
        """Queue one request dict; the future resolves to its reply.

        The reply is an :class:`EncodedOk` for an ok reply, else the
        decoded error reply dict.  The payload's ``id`` is overwritten
        with a channel-internal id (the router keeps the client's id on
        its own side).  The future fails with :class:`ChannelClosed` on
        transport death and :class:`DispatchTimeout` on deadline.
        """
        future = asyncio.get_running_loop().create_future()
        if self._closed:
            future.set_exception(
                ChannelClosed(f"channel to {self.worker_id} is closed")
            )
            return future
        self._next_id += 1
        internal_id = self._next_id
        burst = None
        if timeout is not None:
            burst = self._bursts.get(timeout)
            if burst is None:
                burst = self._bursts[timeout] = _Burst(timeout)
            burst.ids.append(internal_id)
            burst.left += 1
        self._pending[internal_id] = (future, payload["op"], burst)
        if not self._lines:
            if self._writer is not None:
                asyncio.get_running_loop().call_soon(self._flush)
            elif self._connecting is None:
                self._connecting = asyncio.ensure_future(self._connect())
        self._lines.append(
            json.dumps(dict(payload, id=internal_id), sort_keys=True).encode()
            + b"\n"
        )
        return future

    async def close(self) -> None:
        """Tear the channel down; in-flight requests fail ChannelClosed."""
        self._closed = True
        await self._teardown(ChannelClosed(f"channel to {self.worker_id} closed"))

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    async def _connect(self) -> None:
        """Dial the worker, then write the burst queued meanwhile."""
        host, _, port_text = self.address.rpartition(":")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, int(port_text)),
                self.connect_timeout,
            )
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            self._connecting = None
            await self._teardown(ChannelClosed(
                f"cannot reach worker {self.worker_id} at {self.address}: {exc}"
            ))
            return
        self._connecting = None
        self._writer = writer
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))
        self._flush()

    def _flush(self) -> None:
        """Write the queued burst in one write; start its deadlines."""
        if not self._lines or self._writer is None:
            return  # torn down meanwhile, or the dial still owes the write
        lines, self._lines = self._lines, []
        bursts, self._bursts = self._bursts, {}
        self._writer.write(b"".join(lines))
        loop = asyncio.get_running_loop()
        for burst in bursts.values():
            if burst.left:
                burst.timer = loop.call_later(
                    burst.timeout, self._expire, burst
                )

    def _expire(self, burst: _Burst) -> None:
        """Fail the requests of a burst whose deadline passed."""
        error = DispatchTimeout(
            f"worker {self.worker_id} ({self.address}) took more than "
            f"{burst.timeout:.3f}s"
        )
        for internal_id in burst.ids:
            entry = self._pending.pop(internal_id, None)
            if entry is not None and not entry[0].done():
                entry[0].set_exception(error)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Split reply chunks into lines and resolve their requests."""
        tail = b""
        try:
            while True:
                chunk = await reader.read(READ_BYTES)
                if not chunk:
                    await self._teardown(ChannelClosed(
                        f"worker {self.worker_id} closed the connection"
                    ))
                    return
                lines = (tail + chunk).split(b"\n")
                tail = lines.pop()
                for line in lines:
                    self._deliver(line)
                if len(tail) > MAX_LINE_BYTES:
                    raise ValueError(
                        f"reply line exceeds {MAX_LINE_BYTES} bytes"
                    )
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError, OSError, ValueError) as exc:
            await self._teardown(
                ChannelClosed(f"read from worker {self.worker_id} failed: {exc}")
            )

    def _deliver(self, line: bytes) -> None:
        """Resolve the request one reply line (newline stripped) answers."""
        split = split_ok_line(line + b"\n")
        if split is not None:
            reply_id, reply = split
        else:
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                return  # junk line; its request will time out
            if not isinstance(reply, dict):
                return
            reply_id = reply.get("id")
            if type(reply_id) is not int:
                return
        entry = self._pending.pop(reply_id, None)
        if entry is None:
            return  # abandoned at its deadline
        future, op, burst = entry
        if burst is not None:
            burst.left -= 1
            if not burst.left and burst.timer is not None:
                burst.timer.cancel()
        if future.done():
            return
        if isinstance(reply, dict) and reply.get("ok"):
            # An ok line from another encoder: one form for every success.
            reply = EncodedOk.of(op, reply.get("result", {}))
        future.set_result(reply)

    async def _teardown(self, error: ChannelClosed) -> None:
        """Fail everything in flight and reset to the disconnected state."""
        writer, self._writer = self._writer, None
        reader_task, self._reader_task = self._reader_task, None
        connecting, self._connecting = self._connecting, None
        pending, self._pending = self._pending, {}
        self._lines, self._bursts = [], {}
        for future, _, burst in pending.values():
            if burst is not None and burst.timer is not None:
                burst.timer.cancel()
            if not future.done():
                future.set_exception(error)
        for task in (reader_task, connecting):
            if task is not None and task is not asyncio.current_task():
                task.cancel()
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "connected" if self.connected else "idle"
        )
        return (
            f"WorkerChannel({self.worker_id!r}, {self.address!r}, {state}, "
            f"inflight={self.inflight})"
        )
