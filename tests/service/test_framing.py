"""NDJSON framing by the read.

The daemon splits each socket read into lines itself, so how a client
cuts its request stream into writes must change no reply; the line
bounds of the front (oversized line, outstanding replies) must hold
whatever the reads look like; and one read's requests are answered
without a task or ``readline`` per request.
"""

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.truth_table import TruthTable
from repro.service import MAX_LINE_BYTES, ThreadedService
from repro.service.base import MAX_INFLIGHT_REPLIES
from repro.service.coalescer import Coalescer


@pytest.fixture(scope="module")
def uncached(tiny_library):
    """A daemon whose every answer depends on its request line alone."""
    with ThreadedService(tiny_library, cache_size=0, max_wait_ms=1.0) as svc:
        yield svc


def exchange(port: int, writes) -> list[bytes]:
    """Send ``writes`` one ``sendall`` each, half-close, read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for data in writes:
            sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        return sock.makefile("rb").read().splitlines(keepends=True)


def match_line(request_id, table: TruthTable) -> bytes:
    return json.dumps({
        "op": "match", "id": request_id, "table": f"0x{table.to_hex()}",
        "n": table.n,
    }).encode()


JUNK = (
    b"{not json}",
    b"[1, 2, 3]",
    b'"a string"',
    b'{"op": "explode"}',
    b'{"op": "match", "table": "zzz"}',
)
BLANK = (b"", b"   ", b"\t")


@st.composite
def request_streams(draw):
    """Request lines (hits, misses, pings, junk, blanks; LF or CRLF),
    the last one unterminated, and cut points into their bytes."""
    kinds = draw(st.lists(
        st.sampled_from(["hit", "miss", "ping", "junk", "blank"]),
        min_size=1, max_size=40,
    ))
    lines = []
    for index, kind in enumerate(kinds):
        if kind == "hit":
            line = match_line(index, TruthTable(3, draw(st.integers(0, 255))))
        elif kind == "miss":
            # Four inputs: the library holds classes of at most three.
            table = TruthTable(4, draw(st.integers(0, 0xFFFF)))
            line = match_line(index, table)
        elif kind == "ping":
            line = json.dumps({"op": "ping", "id": index}).encode()
        elif kind == "junk":
            line = draw(st.sampled_from(JUNK))
        else:
            line = draw(st.sampled_from(BLANK))
        lines.append(line + draw(st.sampled_from([b"\n", b"\r\n"])))
    lines.append(json.dumps({"op": "ping", "id": "last"}).encode())
    stream = b"".join(lines)
    cuts = sorted(draw(st.sets(st.integers(1, len(stream) - 1), max_size=12)))
    writes = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    return lines, writes


class TestAnyCutSameReplies:
    #: Reply of each request line sent alone, in one write.
    alone: dict = {}

    def reply_alone(self, port: int, line: bytes) -> list[bytes]:
        if line not in self.alone:
            self.alone[line] = exchange(port, [line])
        return self.alone[line]

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(stream=request_streams())
    def test_replies_do_not_depend_on_the_cuts(self, uncached, stream):
        lines, writes = stream
        expected = sorted(
            reply for line in lines
            for reply in self.reply_alone(uncached.port, line)
        )
        assert sorted(exchange(uncached.port, writes)) == expected
        # Every request line, the unterminated last one included, got
        # exactly one reply; blank lines got none.
        assert len(expected) == sum(bool(line.strip()) for line in lines)


class TestFrontBounds:
    def test_unterminated_oversized_line_is_refused_then_hung_up(
        self, uncached
    ):
        blob = b'{"op": "match", "table": "' + b"0" * (MAX_LINE_BYTES + 64)
        with socket.create_connection(
            ("127.0.0.1", uncached.port), timeout=30
        ) as sock:
            # Not the first line: the oversized line meets the read front,
            # not the protocol sniff.
            sock.sendall(b'{"op": "ping", "id": 1}\n' + blob)
            handle = sock.makefile("rb")
            replies = [json.loads(handle.readline()) for _ in range(2)]
            assert handle.readline() == b""  # the daemon hung up
        by_id = {reply.get("id"): reply for reply in replies}
        assert by_id[1]["ok"]
        assert by_id[None]["error"]["type"] == "payload_too_large"

    def test_write_only_client_keeps_outstanding_within_bound(
        self, tiny_library, monkeypatch
    ):
        outstanding = {"now": 0, "most": 0}
        submit = Coalescer.submit

        def settled(_future):
            outstanding["now"] -= 1

        def counted(self, op, table, trace=None):
            future = submit(self, op, table, trace)
            if not future.done():
                outstanding["now"] += 1
                outstanding["most"] = max(
                    outstanding["most"], outstanding["now"]
                )
                future.add_done_callback(settled)
            return future

        monkeypatch.setattr(Coalescer, "submit", counted)
        count = 3 * MAX_INFLIGHT_REPLIES
        # Distinct misses: each waits for a batch, none for the cache.
        payload = b"".join(
            match_line(i, TruthTable(4, 7 * i)) + b"\n" for i in range(count)
        )
        with ThreadedService(tiny_library, max_wait_ms=1.0) as svc:
            with socket.create_connection(
                ("127.0.0.1", svc.port), timeout=60
            ) as sock:
                sender = threading.Thread(target=sock.sendall, args=(payload,))
                sender.start()
                sender.join(30)  # every request written before any read
                assert not sender.is_alive()
                handle = sock.makefile("rb")
                ids = {json.loads(handle.readline())["id"] for _ in range(count)}
        assert ids == set(range(count))
        assert 0 < outstanding["most"] <= MAX_INFLIGHT_REPLIES


def on_loop(host: ThreadedService, fn):
    """``fn()`` run on the host's event-loop thread."""
    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), host._loop).result(10)


def count_tasks(host: ThreadedService) -> list[str]:
    """Names of the coroutines the host's loop starts as tasks from now on
    (the helper's own calls left out)."""
    started = []

    def install():
        loop = asyncio.get_running_loop()

        def factory(loop, coro, **kwargs):
            if coro.__qualname__ != "on_loop.<locals>.call":
                started.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)

    on_loop(host, install)
    return started


class TestOnePassPerRead:
    def test_burst_of_cache_hits_takes_no_task_or_readline_per_request(
        self, tiny_library, monkeypatch
    ):
        tables = [TruthTable(3, value) for value in range(256)]
        burst = b"".join(
            match_line(i, table) + b"\n" for i, table in enumerate(tables)
        )
        with ThreadedService(tiny_library, max_wait_ms=1.0) as svc:
            exchange(svc.port, [burst])  # every table is cached from now on
            tasks = count_tasks(svc)
            readlines = []
            readline = asyncio.StreamReader.readline

            async def counted(self):
                readlines.append(1)
                return await readline(self)

            monkeypatch.setattr(asyncio.StreamReader, "readline", counted)
            replies = [json.loads(line) for line in exchange(svc.port, [burst])]
        assert sorted(reply["id"] for reply in replies) == list(range(256))
        assert all(reply["result"]["cached"] for reply in replies)
        # The connection's handler is a task; no request is.
        assert len(tasks) < 8, tasks
        assert len(readlines) <= 1  # the protocol sniff
