"""Pipelined NDJSON channel from the router to one worker daemon.

One :class:`WorkerChannel` per worker: a persistent connection carrying
many concurrent requests, re-associated by internal request id.  The
send side is a queue drained by a single writer task — whatever
accumulated while the previous write was in flight goes out as **one**
write syscall, so concurrent client requests to the same shard reach the
worker as a coalesced burst of lines.  That burst is exactly the traffic
shape the worker's micro-batching coalescer folds into a single packed
engine pass: the router's fan-out and the worker's batching compose
without either knowing the other's internals.

Failure semantics are strict so the router's retry loop stays simple:

* any transport error (reset, EOF, refused reconnect) fails **all**
  in-flight requests with :class:`ChannelClosed` and tears the channel
  down; the next :meth:`request` redials from scratch;
* a per-request timeout abandons only that request (the reply, if it
  ever arrives, is dropped by id).  The deadline is one
  ``loop.call_later`` timer, cancelled when the reply arrives;
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

__all__ = ["WorkerChannel", "ChannelClosed", "DispatchTimeout"]


class ChannelClosed(ConnectionError):
    """The worker connection died (or could not be established)."""


class DispatchTimeout(TimeoutError):
    """One dispatched request missed its per-attempt deadline."""


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
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._writer_task: asyncio.Task | None = None
        self._reader_task: asyncio.Task | None = None
        self._sendq: asyncio.Queue[bytes] | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._connect_lock = asyncio.Lock()
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

    async def request(
        self, payload: dict, timeout: float | None
    ) -> EncodedOk | dict:
        """Send one request dict; await its reply.

        The reply is an :class:`EncodedOk` for an ok reply, else the
        decoded error reply dict.  The payload's
        ``id`` is overwritten with a channel-internal id (the router
        keeps the client's id on its own side).  Raises
        :class:`ChannelClosed` on transport death and
        :class:`DispatchTimeout` on deadline.
        """
        if self._closed:
            raise ChannelClosed(f"channel to {self.worker_id} is closed")
        await self._ensure_connected()
        self._next_id += 1
        internal_id = self._next_id
        payload = dict(payload, id=internal_id)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[internal_id] = future
        assert self._sendq is not None
        self._sendq.put_nowait(
            json.dumps(payload, sort_keys=True).encode() + b"\n"
        )
        timer = (
            None if timeout is None
            else loop.call_later(timeout, self._expire, future, timeout)
        )
        try:
            reply = await future
        finally:
            if timer is not None:
                timer.cancel()
            self._pending.pop(internal_id, None)
        if isinstance(reply, dict) and reply.get("ok"):
            # An ok line from another encoder: one form for every success.
            return EncodedOk.of(payload["op"], reply.get("result", {}))
        return reply

    def _expire(self, future: asyncio.Future, timeout: float) -> None:
        """Fail one request whose deadline passed before its reply."""
        if not future.done():
            future.set_exception(DispatchTimeout(
                f"worker {self.worker_id} ({self.address}) took more than "
                f"{timeout:.3f}s"
            ))

    async def close(self) -> None:
        """Tear the channel down; in-flight requests fail ChannelClosed."""
        self._closed = True
        await self._teardown(ChannelClosed(f"channel to {self.worker_id} closed"))

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        async with self._connect_lock:
            if self._writer is not None or self._closed:
                return
            host, _, port_text = self.address.rpartition(":")
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(
                        host, int(port_text), limit=MAX_LINE_BYTES + 2
                    ),
                    self.connect_timeout,
                )
            except (OSError, ValueError, asyncio.TimeoutError) as exc:
                raise ChannelClosed(
                    f"cannot reach worker {self.worker_id} at "
                    f"{self.address}: {exc}"
                ) from None
            self._reader, self._writer = reader, writer
            self._sendq = asyncio.Queue()
            self._writer_task = asyncio.ensure_future(self._write_loop())
            self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _write_loop(self) -> None:
        """Drain the send queue; gather queued lines into single writes."""
        assert self._sendq is not None and self._writer is not None
        sendq, writer = self._sendq, self._writer
        try:
            while True:
                chunk = [await sendq.get()]
                while True:
                    try:
                        chunk.append(sendq.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                writer.write(b"".join(chunk))
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            await self._teardown(
                ChannelClosed(
                    f"write to worker {self.worker_id} failed: {exc}"
                )
            )

    async def _read_loop(self) -> None:
        assert self._reader is not None
        reader = self._reader
        try:
            while True:
                line = await reader.readline()
                if not line:
                    await self._teardown(
                        ChannelClosed(
                            f"worker {self.worker_id} closed the connection"
                        )
                    )
                    return
                split = split_ok_line(line)
                if split is not None:
                    reply_id, reply = split
                else:
                    try:
                        reply = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # junk line; its request will time out
                    if not isinstance(reply, dict):
                        continue
                    reply_id = reply.get("id")
                future = self._pending.pop(reply_id, None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError, OSError, ValueError) as exc:
            await self._teardown(
                ChannelClosed(f"read from worker {self.worker_id} failed: {exc}")
            )

    async def _teardown(self, error: ChannelClosed) -> None:
        """Fail everything in flight and reset to the disconnected state."""
        writer = self._writer
        self._reader, self._writer, self._sendq = None, None, None
        writer_task, self._writer_task = self._writer_task, None
        reader_task, self._reader_task = self._reader_task, None
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
        for task in (writer_task, reader_task):
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
