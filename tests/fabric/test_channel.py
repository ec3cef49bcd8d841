"""WorkerChannel transport semantics against in-process asyncio peers.

The router's retry loop leans on exactly three channel behaviours —
typed timeout, typed death-of-everything-in-flight, transparent redial —
so each gets a direct test against a scripted asyncio server rather than
a real worker.  So does the relay form of a reply: every ok reply comes
back as an ``EncodedOk``, undecoded when the worker's ``encode_line``
wrote it, and a line cut short by the worker's death is never a reply.
"""

import asyncio
import json

import pytest

from repro.fabric.channel import ChannelClosed, DispatchTimeout, WorkerChannel
from repro.service.protocol import EncodedOk, encode_line, ok_reply


class ScriptedPeer:
    """An asyncio server whose per-line behaviour a test chooses."""

    def __init__(self, answer):
        self.answer = answer  # coroutine(reply_dict) -> bytes | None
        self.server = None
        self.connections = 0

    async def __aenter__(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self.server.sockets[0].getsockname()[1]
        self.address = f"127.0.0.1:{self.port}"
        return self

    async def __aexit__(self, *exc_info):
        self.server.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                out = await self.answer(json.loads(line), writer)
                if out is not None:
                    writer.write(out)
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()


async def echo_ok(request, _writer):
    reply = {"ok": True, "id": request["id"], "result": {"echo": request}}
    return json.dumps(reply).encode() + b"\n"


async def echo_encoded(request, _writer):
    """The ok line a worker writes: ``encode_line`` sorts its keys."""
    return encode_line(ok_reply(request["id"], request["op"], {"echo": request}))


def echoed(reply) -> dict:
    """The echoed request of an ok reply."""
    assert isinstance(reply, EncodedOk)
    return reply.result()["echo"]


class TestRoundTrips:
    @pytest.mark.parametrize("answer", [echo_ok, echo_encoded])
    def test_pipelined_requests_reassociate_by_id(self, answer):
        async def scenario():
            async with ScriptedPeer(answer) as peer:
                channel = WorkerChannel("w0", peer.address)
                replies = await asyncio.gather(
                    *(
                        channel.request({"op": "ping", "seq": i}, 5.0)
                        for i in range(16)
                    )
                )
                await channel.close()
                return peer.connections, replies

        connections, replies = asyncio.run(scenario())
        assert connections == 1  # one persistent connection, not 16 dials
        for i, reply in enumerate(replies):
            assert echoed(reply)["seq"] == i

    def test_unsorted_ok_line_is_re_encoded_once(self):
        async def scenario():
            async with ScriptedPeer(echo_ok) as peer:
                channel = WorkerChannel("w0", peer.address)
                reply = await channel.request({"op": "ping", "seq": 4}, 5.0)
                await channel.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply.line(9) == encode_line(
            ok_reply(9, "ping", reply.result())
        )

    def test_junk_lines_are_skipped_not_fatal(self):
        async def junk_then_ok(request, writer):
            writer.write(b"not json at all\n[1, 2, 3]\n")
            return await echo_ok(request, writer)

        async def scenario():
            async with ScriptedPeer(junk_then_ok) as peer:
                channel = WorkerChannel("w0", peer.address)
                reply = await channel.request({"op": "ping"}, 5.0)
                await channel.close()
                return reply

        assert echoed(asyncio.run(scenario()))["op"] == "ping"


class TestFailureSemantics:
    def test_unanswered_request_times_out_typed(self):
        async def black_hole(_request, _writer):
            return None  # accept, parse, never answer

        async def scenario():
            async with ScriptedPeer(black_hole) as peer:
                channel = WorkerChannel("w0", peer.address)
                with pytest.raises(DispatchTimeout):
                    await channel.request({"op": "ping"}, 0.2)
                assert channel.inflight == 0  # abandoned, not leaked
                await channel.close()

        asyncio.run(scenario())

    def test_peer_death_fails_all_inflight(self):
        async def die_on_second(request, writer):
            if request.get("seq") == 1:
                writer.close()  # EOF for everyone
                return None
            return None  # park the first request forever

        async def scenario():
            async with ScriptedPeer(die_on_second) as peer:
                channel = WorkerChannel("w0", peer.address)
                first = asyncio.ensure_future(
                    channel.request({"op": "ping", "seq": 0}, 5.0)
                )
                await asyncio.sleep(0.05)  # first is parked in-flight
                with pytest.raises(ChannelClosed):
                    await channel.request({"op": "ping", "seq": 1}, 5.0)
                with pytest.raises(ChannelClosed):
                    await first
                await channel.close()

        asyncio.run(scenario())

    def test_redials_after_teardown(self):
        async def scenario():
            async with ScriptedPeer(echo_ok) as peer:
                channel = WorkerChannel("w0", peer.address)
                echoed(await channel.request({"op": "ping"}, 5.0))
                # Simulate transport death without closing the channel.
                await channel._teardown(ChannelClosed("test-induced"))
                assert not channel.connected
                echoed(await channel.request({"op": "ping"}, 5.0))
                await channel.close()
                return peer.connections

        assert asyncio.run(scenario()) == 2

    @pytest.mark.parametrize("cut", [len(b'{"id": 1, "ok": true, '), 40, -2])
    def test_ok_line_cut_by_peer_death_is_channel_closed(self, cut):
        # A worker killed mid-write leaves the tail of one write without
        # its newline; that fragment must fail the request, not answer it.
        async def whole_then_cut(request, writer):
            if request.get("seq") == 0:
                return None  # answered together with the second request
            lines = [
                encode_line(ok_reply(id_, "ping", {"echo": {"seq": seq}}))
                for id_, seq in ((request["id"] - 1, 0), (request["id"], 1))
            ]
            writer.write(lines[0] + lines[1][:cut])
            await writer.drain()
            writer.close()
            return None

        async def scenario():
            async with ScriptedPeer(whole_then_cut) as peer:
                channel = WorkerChannel("w0", peer.address)
                first = asyncio.ensure_future(
                    channel.request({"op": "ping", "seq": 0}, 5.0)
                )
                await asyncio.sleep(0.05)
                with pytest.raises(ChannelClosed):
                    await channel.request({"op": "ping", "seq": 1}, 5.0)
                reply = await first
                assert channel.inflight == 0
                await channel.close()
                return reply

        assert echoed(asyncio.run(scenario()))["seq"] == 0

    def test_connect_refused_is_channel_closed(self):
        async def scenario():
            import socket

            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            channel = WorkerChannel("w0", f"127.0.0.1:{port}")
            with pytest.raises(ChannelClosed):
                await channel.request({"op": "ping"}, 1.0)

        asyncio.run(scenario())

    def test_closed_channel_refuses_new_requests(self):
        async def scenario():
            channel = WorkerChannel("w0", "127.0.0.1:1")
            await channel.close()
            with pytest.raises(ChannelClosed):
                await channel.request({"op": "ping"}, 1.0)

        asyncio.run(scenario())


class TestDeadline:
    @pytest.mark.parametrize("answer", [echo_ok, echo_encoded])
    def test_late_reply_is_dropped_and_the_channel_stays_usable(self, answer):
        sent = []

        async def late_first(request, writer):
            if request.get("seq") == 0:
                await asyncio.sleep(0.3)
            sent.append(request["seq"])
            return await answer(request, writer)

        async def scenario():
            async with ScriptedPeer(late_first) as peer:
                channel = WorkerChannel("w0", peer.address)
                with pytest.raises(
                    DispatchTimeout,
                    match=rf"^worker w0 \({peer.address}\) took more than "
                    r"0\.100s$",
                ):
                    await channel.request({"op": "ping", "seq": 0}, 0.1)
                assert channel.inflight == 0
                while not sent:  # the late reply reaches the channel
                    await asyncio.sleep(0.05)
                await asyncio.sleep(0.05)
                assert channel.inflight == 0
                assert channel.connected
                reply = await channel.request({"op": "ping", "seq": 1}, 5.0)
                assert channel.inflight == 0
                await channel.close()
                return peer.connections, reply

        connections, reply = asyncio.run(scenario())
        assert connections == 1
        assert echoed(reply)["seq"] == 1

    @pytest.mark.parametrize("timeout", [5.0, None])
    def test_reply_in_time_cancels_its_timer(self, timeout):
        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []
            call_later = loop.call_later

            def spy(delay, callback, *args, **kwargs):
                handle = call_later(delay, callback, *args, **kwargs)
                if getattr(callback, "__func__", None) is WorkerChannel._expire:
                    timers.append((delay, handle))
                return handle

            loop.call_later = spy
            async with ScriptedPeer(echo_encoded) as peer:
                channel = WorkerChannel("w0", peer.address)
                reply = await channel.request({"op": "ping", "seq": 3}, timeout)
                assert channel.inflight == 0
                await channel.close()
            return timers, reply

        timers, reply = asyncio.run(scenario())
        assert echoed(reply)["seq"] == 3
        if timeout is None:
            assert timers == []
        else:
            ((delay, handle),) = timers
            assert delay == timeout
            assert handle.cancelled()
