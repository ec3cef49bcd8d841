"""Router integration: control plane, shard routing, failure handling.

A real :class:`RouterService` and real :class:`FabricWorker` daemons run
on :class:`ThreadedService` loop threads; clients speak to the router
through the ordinary blocking :class:`ServiceClient` — nothing here is
mocked except where a test *needs* a pathological peer (the black-hole
worker that accepts connections and never answers).
"""

import asyncio
import contextlib
import json
import socket
import socketserver
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.truth_table import TruthTable
from repro.fabric import channel as channel_module
from repro.fabric import router as router_module
from repro.fabric.backoff import RetryPolicy
from repro.fabric.channel import ChannelClosed, DispatchTimeout, WorkerChannel
from repro.fabric.ring import HashRing
from repro.fabric.router import RouterService
from repro.fabric.worker import FabricWorker
from repro.service import ServiceClient, ServiceError, ThreadedService
from repro.service import protocol
from repro.service.client import http_get
from repro.service.protocol import (
    EncodedOk,
    ProtocolError,
    encode_line,
    error_reply,
    ok_reply,
)
from tests.msv_rows import scalar_shard_key
from tests.service.test_framing import count_tasks, on_loop

RING = ("w0", "w1")


def wait_for(predicate, timeout_s=15.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def match_lines(tables) -> bytes:
    """One NDJSON ``match`` line per table, ids numbered from 0."""
    return b"".join(
        json.dumps(
            {"op": "match", "id": i, "table": f"0x{t.to_hex()}", "n": t.n}
        ).encode()
        + b"\n"
        for i, t in enumerate(tables)
    )


def pipeline(port, tables):
    """Send every ``match`` line in one write; replies keyed by id."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(match_lines(tables))
        stream = sock.makefile("rb")
        replies = [json.loads(stream.readline()) for _ in tables]
    return {reply["id"]: reply for reply in replies}


def shard_key_passes():
    """Batched shard-key passes observed so far in this process."""
    histogram = obs.registry().get("repro_fabric_shard_key_batch_size")
    return histogram.series()["count"]


def scraped(address, family, **labels):
    """Sum of the ``/metrics`` samples of ``family`` matching ``labels``."""
    status, text = http_get(address, "/metrics")
    assert status == 200
    total = 0.0
    for line in text.splitlines():
        name, _, rest = line.partition("{")
        if line.startswith("#") or name.split(" ")[0] != family:
            continue
        if all(f'{key}="{value}"' in rest for key, value in labels.items()):
            total += float(line.rsplit(" ", 1)[1])
    return total


def http_stats(address):
    status, body = http_get(address, "/v1/stats")
    assert status == 200
    return json.loads(body)


def http_post(address, path, body: dict) -> dict:
    request = urllib.request.Request(
        f"http://{address}{path}", data=json.dumps(body).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def stub_router(monkeypatch, dispatch, attempts=3, workers=("w0",)):
    """A router with registered ``workers`` whose channels ``dispatch``
    answers, called as ``dispatch(worker_id, payload, timeout)``.

    No worker daemon runs, so the process's ``repro_service_*`` request
    series see only what the router itself counts.
    """
    router = RouterService(
        port=0,
        policy=RetryPolicy(
            attempts=attempts, base_ms=1.0, cap_ms=2.0, timeout_ms=500.0
        ),
        heartbeat_interval_s=30.0,
    )
    for worker_id in workers:
        router._register(
            {
                "worker": {
                    "worker_id": worker_id,
                    "address": "127.0.0.1:9",
                    "ring": HashRing(workers).spec(),
                }
            }
        )
    monkeypatch.setattr(
        router, "_channel", lambda worker_id: StubChannel(worker_id, dispatch)
    )
    return router


class StubChannel:
    """A worker channel whose replies a test's ``dispatch`` coroutine gives."""

    def __init__(self, worker_id, dispatch):
        self.worker_id = worker_id
        self.dispatch = dispatch

    def request(self, payload, timeout):
        return asyncio.ensure_future(
            self.dispatch(self.worker_id, payload, timeout)
        )


def make_worker(tiny_library, worker_id, ring, router_address, **kwargs):
    shard = tiny_library.subset(ring.shard_filter(worker_id))
    return FabricWorker(
        shard,
        worker_id=worker_id,
        router_address=router_address,
        ring=ring,
        port=0,
        **kwargs,
    )


@pytest.fixture()
def fabric(tiny_library):
    """A running router + two registered workers; yields (router, workers)."""
    ring = HashRing(RING)
    router = RouterService(
        port=0,
        policy=RetryPolicy(
            attempts=3, base_ms=5.0, cap_ms=20.0, timeout_ms=2000.0
        ),
        heartbeat_interval_s=0.1,
        trace_sample=1,
    )
    with ThreadedService(router) as router_host:
        workers = [
            make_worker(tiny_library, worker_id, ring, router_host.address)
            for worker_id in RING
        ]
        hosts = [ThreadedService(worker) for worker in workers]
        try:
            for host in hosts:
                host.start()
            # The router counts a worker alive as soon as it answers the
            # register call; the worker sets ``registered`` only after it
            # reads that reply.  Wait for both sides.
            wait_for(
                lambda: router.registry.counts()["alive"] == len(RING)
                and all(worker.registered for worker in workers),
                message="workers to register",
            )
            yield router, workers
        finally:
            for host in hosts:
                host.stop()


class TestControlPlane:
    def test_registration_populates_registry_and_ring(self, fabric):
        router, workers = fabric
        assert router.ring is not None
        assert set(router.ring.nodes) == set(RING)
        snapshot = router.registry.snapshot()
        for worker in workers:
            info = snapshot["workers"][worker.worker_id]
            assert info["state"] == "alive"
            assert info["capabilities"]["classes"] == worker.library.num_classes
            assert info["capabilities"]["arities"] == [2, 3]

    def test_registration_still_carrying_parts_registers(self):
        # A worker of an older build may still send ``parts``; every
        # shard key is the library's one MSV, so the field is ignored.
        router = RouterService(port=0)
        reply = router._register(
            {
                "worker": {
                    "worker_id": "w0",
                    "address": "127.0.0.1:1",
                    "ring": HashRing(("w0",)).spec(),
                    "parts": ["c0", "oiv"],
                }
            }
        )
        assert reply["registered"] is True
        assert router.registry.snapshot()["workers"]["w0"]["state"] == "alive"
        assert "parts" not in router.identity()

    @pytest.mark.parametrize("wrong", ["nodes", "keys"])
    def test_ring_mismatch_is_rejected(self, fabric, wrong):
        router, _ = fabric
        if wrong == "nodes":
            worker_id, expected = "intruder", "ring mismatch"
            spec = HashRing(("w0", "w1", "intruder")).spec()
        else:
            worker_id, expected = "w1", "key scheme"
            spec = {**HashRing(RING).spec(), "keys": "n{n}-{digest}"}
        with socket.create_connection(
            ("127.0.0.1", router.port), timeout=10
        ) as sock:
            sock.sendall(
                json.dumps(
                    {
                        "op": "register",
                        "id": 1,
                        "worker": {
                            "worker_id": worker_id,
                            "address": "127.0.0.1:1",
                            "ring": spec,
                        },
                    }
                ).encode()
                + b"\n"
            )
            reply = json.loads(sock.makefile("rb").readline())
        assert not reply["ok"]
        assert reply["error"]["type"] == "bad_request"
        assert expected in reply["error"]["message"]
        if wrong == "keys":
            # The first registrant pins the ring, so it is checked too.
            fresh = RouterService(port=0)
            worker = {"worker_id": "w0", "address": "127.0.0.1:1", "ring": spec}
            with pytest.raises(ProtocolError, match=expected):
                fresh._register({"worker": worker})
            assert fresh.ring is None

    def test_heartbeat_for_unknown_worker_says_so(self, fabric):
        router, _ = fabric
        with ServiceClient(port=router.port) as client:
            reply = client._roundtrip(
                {"op": "heartbeat", "id": 1, "worker_id": "ghost"}
            )
        assert reply == {"known": False}

    def test_drain_op_stops_routing(self, fabric):
        router, _ = fabric
        with ServiceClient(port=router.port) as client:
            reply = client._roundtrip(
                {"op": "drain", "id": 1, "worker_id": "w0"}
            )
            assert reply["draining"] is True
            # Replication means the other worker holds every shard: all
            # queries keep answering.
            for value in range(0, 256, 17):
                result = client.match(TruthTable(3, value))
                assert result["hit"]
        assert router.registry.counts()["draining"] == 1

    def test_worker_ops_rejected_on_plain_daemon(self, tiny_library):
        # FABRIC_OPS are router-only: a classification daemon must
        # reject them as unknown ops, not silently accept.
        with ThreadedService(tiny_library) as svc:
            with ServiceClient(port=svc.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client._roundtrip(
                        {"op": "register", "id": 1, "worker": {}}
                    )
        assert excinfo.value.error_type == "bad_request"


class TestRouting:
    def test_routed_answers_match_offline_library(self, fabric, tiny_library):
        router, _ = fabric
        with ServiceClient(port=router.port) as client:
            for value in range(256):
                table = TruthTable(3, value)
                result = client.match(table)
                assert result["hit"]
                assert ServiceClient.verify(result, table)
                offline = tiny_library.match(table)
                assert result["class_id"] == offline.class_id

    def test_pipelined_burst_through_router(self, fabric):
        router, _ = fabric
        # 512 lines of mixed arity on one connection: the router keys
        # them in a few per-tick batched passes, not one pass each.
        tables = [
            TruthTable(3, value // 2) if value % 2 else TruthTable(2, value % 16)
            for value in range(512)
        ]
        passes_before = shard_key_passes()
        with ServiceClient(port=router.port) as client:
            before = client.stats()["fabric"]
            results = client.match_many(tables)
            after = client.stats()["fabric"]
        for table, result in zip(tables, results):
            assert result["hit"]
            assert ServiceClient.verify(result, table)
        assert shard_key_passes() - passes_before <= 512 // 8
        # A healthy fleet serves the burst without the failure machinery
        # (the counters are process-wide, so compare across the burst).
        assert after["degraded"] == before["degraded"]
        assert after["retries"] == before["retries"]

    def test_classify_and_ping_and_stats(self, fabric):
        router, _ = fabric
        with ServiceClient(port=router.port) as client:
            pong = client.ping()
            assert pong["role"] == "router"
            assert pong["workers"]["alive"] == 2
            classified = client.classify(TruthTable(3, 0xE8))
            assert classified["known"]
            stats = client.stats()
            assert stats["identity"]["role"] == "router"
            assert stats["ring"]["nodes"] == list(RING)
            assert set(stats["registry"]["workers"]) == set(RING)

    def test_http_front_healthz_ring_metrics(self, fabric):
        router, _ = fabric
        status, body = http_get(router.address, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["role"] == "router"
        status, body = http_get(router.address, "/v1/ring")
        assert status == 200
        assert json.loads(body)["ring"]["nodes"] == list(RING)
        status, body = http_get(router.address, "/metrics")
        assert status == 200
        assert "repro_fabric_requests_total" in body
        status, body = http_get(router.address, "/v1/stats")
        assert status == 200
        assert json.loads(body)["identity"]["role"] == "router"

    def test_http_post_routes_through_fabric(self, fabric, tiny_library):
        router, _ = fabric
        # The relayed reply is decoded into the same body a bare daemon
        # sends.
        body = {"table": "0xe8", "n": 3}
        with ThreadedService(tiny_library) as daemon:
            bare = http_post(daemon.address, "/v1/match", body)
        routed = http_post(router.address, "/v1/match", body)
        assert routed == bare
        assert routed["ok"] and routed["result"]["hit"]
        assert ServiceClient.verify(routed["result"], TruthTable(3, 0xE8))

    def test_trace_spans_cover_route_dispatch_reply(self, fabric):
        router, _ = fabric
        with ServiceClient(port=router.port) as client:
            client.match(TruthTable(3, 0x96))

        def match_traces():
            # The trace finishes a beat after the reply flushes to the
            # client, so poll rather than read immediately.
            _, body = http_get(router.address, "/v1/trace/recent?limit=50")
            return [
                t for t in json.loads(body)["traces"] if t["op"] == "match"
            ]

        wait_for(match_traces, message="the match trace to finish")
        span_names = {s["name"] for s in match_traces()[0]["spans"]}
        assert {"decode", "route", "dispatch", "reply"} <= span_names


class TestOneCounterPerEvent:
    def test_routed_request_counts_in_the_fabric_family_only(
        self, monkeypatch
    ):
        async def answered(worker_id, payload, timeout):
            return EncodedOk.of("match", {"hit": False, "n": 3})

        reg = obs.registry()
        routed = reg.get("repro_fabric_requests_total")
        served = reg.get("repro_service_requests_total")
        router = stub_router(monkeypatch, answered)
        with ThreadedService(router) as host:
            before = routed.value(op="match"), served.value(op="match")
            with ServiceClient(port=host.port) as client:
                assert client.match(TruthTable(3, 0xE8)) == {
                    "hit": False, "n": 3
                }
            after = routed.value(op="match"), served.value(op="match")
            # The stats readout is the same series /metrics renders.
            stats = http_stats(host.address)
            assert stats["requests_by_op"]["match"] == scraped(
                host.address, "repro_fabric_requests_total", op="match"
            )
        assert after == (before[0] + 1, before[1])

    def test_exhausted_attempts_count_only_re_dispatches(self, monkeypatch):
        async def times_out(worker_id, payload, timeout):
            raise DispatchTimeout("injected deadline miss")

        router = stub_router(monkeypatch, times_out, attempts=3)
        with ThreadedService(router) as host:
            scraped_before = scraped(host.address, "repro_fabric_retries_total")
            stats_before = http_stats(host.address)["fabric"]["retries"]
            with ServiceClient(port=host.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.match(TruthTable(3, 0xE8))
            assert excinfo.value.error_type == "timeout"
            scraped_after = scraped(host.address, "repro_fabric_retries_total")
            stats_after = http_stats(host.address)["fabric"]["retries"]
        # Three failed attempts are two re-dispatches, in both readouts.
        assert scraped_after - scraped_before == 2
        assert stats_after - stats_before == 2
        assert stats_after == scraped_after


class TestDegradedMode:
    def test_no_workers_means_typed_shard_unavailable(self):
        router = RouterService(port=0)
        with ThreadedService(router) as host:
            with ServiceClient(port=host.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.match(TruthTable(3, 0xE8))
        assert excinfo.value.error_type == "shard_unavailable"

    def test_burst_before_registration_is_shard_unavailable(self):
        router = RouterService(port=0)
        tables = [TruthTable(3, value) for value in range(64)]
        with ThreadedService(router) as host:
            replies = pipeline(host.port, tables)
        assert len(replies) == len(tables)
        for reply in replies.values():
            assert not reply["ok"]
            assert reply["error"]["type"] == "shard_unavailable"

    def test_all_owners_down_fails_fast_not_hanging(self, fabric):
        router, _ = fabric
        # Drain both workers: every shard's owner set becomes empty.
        with ServiceClient(port=router.port) as client:
            for worker_id in RING:
                client._roundtrip(
                    {"op": "drain", "id": worker_id, "worker_id": worker_id}
                )
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.match(TruthTable(3, 0xE8))
            elapsed = time.monotonic() - t0
        assert excinfo.value.error_type == "shard_unavailable"
        assert elapsed < 2.0  # fail fast, no retry/timeout ladder


class TestBatchedShardKeys:
    def test_failed_pass_answers_internal_then_recovers(
        self, fabric, monkeypatch
    ):
        router, _ = fabric
        failed_rows = []
        real = router_module.BatchedClassifier

        class FailsOnce(real):
            def signatures(self, tables):
                if not failed_rows:
                    failed_rows.append(len(tables))
                    raise RuntimeError("injected kernel fault")
                return super().signatures(tables)

        monkeypatch.setattr(router_module, "BatchedClassifier", FailsOnce)
        tables = [TruthTable(3, value) for value in range(256)]
        replies = pipeline(router.port, tables)
        failed = [r for r in replies.values() if not r["ok"]]
        # Exactly the requests of the failing tick answer a typed error;
        # every other request of the burst routes normally.
        assert failed_rows and len(failed) == failed_rows[0]
        assert {r["error"]["type"] for r in failed} == {"internal"}
        assert "injected kernel fault" in failed[0]["error"]["message"]
        for i, reply in replies.items():
            if reply["ok"]:
                assert ServiceClient.verify(reply["result"], tables[i])
        # The next request routes normally.
        with ServiceClient(port=router.port) as client:
            table = TruthTable(3, 0xE8)
            assert ServiceClient.verify(client.match(table), table)

    def test_one_pass_keys_the_table_ops_among_other_ops(self):
        router = RouterService(port=0)
        tables = [TruthTable(3, value) for value in range(8)]
        routed = {}
        router._route = lambda request, key, trace, start: routed.setdefault(
            request.id, key
        )
        requests = []
        for index, table in enumerate(tables):
            requests.append(protocol.Request(op="match", id=index, table=table))
            if index in (1, 4, 5):
                requests.append(protocol.Request(op="ping", id=f"p{index}"))
        passes_before = shard_key_passes()
        results = router._resolve_all(requests, [None] * len(requests))
        # One batched pass keys the read; the pings in between neither
        # take a key nor shift one.
        assert shard_key_passes() - passes_before == 1
        assert routed == {
            index: scalar_shard_key(table) for index, table in enumerate(tables)
        }
        pongs = [
            result for request, result in zip(requests, results)
            if request.op == "ping"
        ]
        assert len(pongs) == 3 and all(pong["pong"] for pong in pongs)

    def test_client_gone_mid_burst_leaves_others_answered(self, fabric):
        router, _ = fabric
        tables = [TruthTable(3, value) for value in range(256)]
        quitter = socket.create_connection(("127.0.0.1", router.port))
        quitter.sendall(match_lines(tables))
        quitter.close()  # hangs up without reading a single reply
        replies = pipeline(router.port, tables)
        assert len(replies) == len(tables)
        for i, reply in replies.items():
            assert reply["ok"]
            assert ServiceClient.verify(reply["result"], tables[i])


@contextlib.contextmanager
def hole_beside_replica(tiny_library):
    """A router whose ring is a real worker plus a black hole.

    The black hole is a listener that accepts and never replies: the
    gray failure.  Both own every shard, so the real worker is the
    replica of whatever the ring routes to the hole first.
    """
    hole = socket.socket()
    hole.bind(("127.0.0.1", 0))
    hole.listen(8)
    hole_port = hole.getsockname()[1]
    accepted = []

    def accept_forever():
        try:
            while True:
                conn, _ = hole.accept()
                accepted.append(conn)  # keep open, never answer
        except OSError:
            pass

    thread = threading.Thread(target=accept_forever, daemon=True)
    thread.start()

    ring = HashRing(("real", "hole"))
    router = RouterService(
        port=0,
        policy=RetryPolicy(
            attempts=3, base_ms=5.0, cap_ms=20.0, timeout_ms=300.0
        ),
        heartbeat_interval_s=30.0,  # liveness driven by data plane here
    )
    try:
        with ThreadedService(router) as router_host:
            worker = make_worker(
                tiny_library, "real", ring, router_host.address
            )
            with ThreadedService(worker):
                wait_for(
                    lambda: router.registry.counts()["alive"] >= 1,
                    message="real worker to register",
                )
                # Hand-register the black hole so the ring routes half
                # its keys there first.
                with ServiceClient(port=router.port) as client:
                    client._roundtrip(
                        {
                            "op": "register",
                            "id": 0,
                            "worker": {
                                "worker_id": "hole",
                                "address": f"127.0.0.1:{hole_port}",
                                "ring": ring.spec(),
                            },
                        }
                    )
                yield router
    finally:
        hole.close()
        for conn in accepted:
            conn.close()


def match_verified(router, values):
    with ServiceClient(port=router.port) as client:
        for value in values:
            table = TruthTable(3, value)
            result = client.match(table)
            assert result["hit"]
            assert ServiceClient.verify(result, table)


class TestTimeouts:
    def test_black_hole_worker_times_out_and_replica_answers(
        self, tiny_library
    ):
        with hole_beside_replica(tiny_library) as router:
            match_verified(router, range(0, 256, 5))
            stats = router._stats_snapshot()
            # Some keys were owned by the hole first: the router must
            # have timed out and retried onto the replica.
            assert stats["fabric"]["retries"] >= 1
            assert router.registry.state_of("hole") == "suspect"

    def test_suspect_owner_gets_no_dispatch_while_a_replica_is_alive(
        self, tiny_library
    ):
        with hole_beside_replica(tiny_library) as router:
            match_verified(router, range(0, 256, 5))
            assert router.registry.state_of("hole") == "suspect"
            into_hole = scraped(
                router.address, "repro_fabric_dispatch_seconds_count",
                worker="hole",
            )
            match_verified(router, range(1, 256, 5))
            assert scraped(
                router.address, "repro_fabric_dispatch_seconds_count",
                worker="hole",
            ) == into_hole

    def test_retry_goes_to_an_untried_owner(self, monkeypatch):
        calls = []

        async def first_refused(worker_id, payload, timeout):
            calls.append(worker_id)
            if len(calls) == 1:
                raise ChannelClosed("Connect call failed")
            return EncodedOk.of("match", {"hit": False, "worker": worker_id})

        router = stub_router(monkeypatch, first_refused, workers=("a", "b"))
        for worker_id in ("a", "b"):
            router.registry.mark_suspect(worker_id)
        with ThreadedService(router) as host:
            with ServiceClient(port=host.port) as client:
                result = client.match(TruthTable(3, 0xE8))
        assert sorted(calls) == ["a", "b"]
        assert result["worker"] == calls[1]


class TestWorkerDaemon:
    def test_worker_healthz_reports_fabric_identity(self, fabric):
        _, workers = fabric
        worker = workers[0]
        status, body = http_get(worker.address, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["worker_id"] == worker.worker_id
        assert health["registered"] is True
        assert health["ring"]["nodes"] == list(RING)

    def test_worker_serves_only_its_shard(self, fabric, tiny_library):
        router, workers = fabric
        assert router.ring is not None
        for worker in workers:
            expected = sum(
                1
                for entry in tiny_library.classes.values()
                if router.ring.covers(
                    scalar_shard_key(entry.representative), worker.worker_id
                )
            )
            assert worker.library.num_classes == expected

    def test_stop_ends_a_control_loop_that_swallowed_its_cancel(
        self, tiny_library, monkeypatch
    ):
        # Before Python 3.12, asyncio.wait_for returns its result instead
        # of raising when a cancel lands as its inner call completes.  A
        # heartbeat that swallows the drain's cancel must not stall stop().
        worker = make_worker(tiny_library, "w0", HashRing(RING), "127.0.0.1:9")
        beating = threading.Event()
        swallowed = []

        async def control_call(payload):
            if payload["op"] == "heartbeat" and not swallowed:
                beating.set()
                try:
                    await asyncio.sleep(30.0)
                except asyncio.CancelledError:
                    swallowed.append(True)
            return {"ok": True, "result": {"known": True}}

        monkeypatch.setattr(worker, "_control_call", control_call)
        host = ThreadedService(worker).start()
        try:
            assert beating.wait(10.0)
            started = time.monotonic()
            host.stop()
            assert time.monotonic() - started < 5.0
            assert swallowed
        finally:
            host.stop()


def raw_lines(port, payload: bytes, count: int) -> list[bytes]:
    """Write ``payload`` in one send; the first ``count`` reply lines."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        stream = sock.makefile("rb")
        return [stream.readline() for _ in range(count)]


@contextlib.contextmanager
def scripted_worker(answer):
    """A worker stand-in: each request line is answered ``answer(request)``.

    Yields ``(address, requests)``, ``requests`` growing with every
    request line read, so a test can count the router's dispatches.
    """
    requests = []

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for line in self.rfile:
                requests.append(json.loads(line))
                self.wfile.write(answer(requests[-1]))

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02},
        daemon=True,
    )
    thread.start()
    try:
        yield f"127.0.0.1:{server.server_address[1]}", requests
    finally:
        server.shutdown()
        server.server_close()


@contextlib.contextmanager
def routed_to(address):
    """A running router whose one registered worker ``w0`` is ``address``."""
    router = RouterService(
        port=0,
        policy=RetryPolicy(
            attempts=3, base_ms=1.0, cap_ms=2.0, timeout_ms=2000.0
        ),
        heartbeat_interval_s=30.0,
    )
    router._register(
        {
            "worker": {
                "worker_id": "w0",
                "address": address,
                "ring": HashRing(("w0",)).spec(),
            }
        }
    )
    with ThreadedService(router) as host:
        yield host


MISS = {"hit": False, "n": 3, "cached": False}


class TestRelay:
    """An ok worker reply is relayed as bytes under the client's id."""

    @pytest.mark.parametrize(
        "client_id", [lambda i: i, lambda i: f"q-{i}", None],
        ids=["int", "str", "absent"],
    )
    def test_routed_line_is_the_bare_daemons_line(
        self, fabric, tiny_library, client_id
    ):
        router, _ = fabric
        # Distinct tables, so no answer depends on what either side has
        # cached; the n=4 ones miss the n<=3 library.
        tables = [TruthTable(3, value) for value in range(0, 256, 9)] + [
            TruthTable(4, 0x6AC5), TruthTable(4, 0x8000)
        ]
        lines = []
        for i, table in enumerate(tables):
            line = {"op": "match", "table": f"0x{table.to_hex()}", "n": table.n}
            if client_id is not None:
                line["id"] = client_id(i)
            lines.append(json.dumps(line).encode() + b"\n")
        payload = b"".join(lines)
        with ThreadedService(tiny_library) as daemon:
            bare = raw_lines(daemon.port, payload, len(tables))
        routed = raw_lines(router.port, payload, len(tables))
        # Pipelined replies may leave in any order, on either side.
        assert sorted(routed) == sorted(bare)
        assert sum(b'"hit": true' in line for line in routed) == len(tables) - 2

    def test_routed_hit_is_neither_decoded_nor_re_encoded(self, monkeypatch):
        calls = []

        def counted(name, function):
            return lambda *args, **kwargs: (
                calls.append(name) or function(*args, **kwargs)
            )

        def answer(request):
            return encode_line(ok_reply(request["id"], request["op"], MISS))

        with scripted_worker(answer) as (address, requests):
            with routed_to(address) as host:
                # The channel's own json: the worker decodes with its own.
                monkeypatch.setattr(channel_module, "json", SimpleNamespace(
                    dumps=json.dumps,
                    loads=counted("loads", json.loads),
                    JSONDecodeError=json.JSONDecodeError,
                ))
                monkeypatch.setattr(
                    protocol, "encode_line",
                    counted("encode_line", protocol.encode_line),
                )
                with ServiceClient(port=host.port) as client:
                    assert client.match(TruthTable(3, 0xE8)) == MISS
        assert len(requests) == 1
        assert calls == []

    def test_line_without_the_ok_prefix_is_decoded_and_re_encoded(self):
        def unsorted(request):
            reply = {"ok": True, "id": request["id"], "op": "match",
                     "result": MISS}
            return json.dumps(reply).encode() + b"\n"

        request = b'{"op": "match", "id": "c", "table": "0xe8", "n": 3}\n'
        with scripted_worker(unsorted) as (address, _):
            with routed_to(address) as host:
                (line,) = raw_lines(host.port, request, 1)
        assert line == encode_line(ok_reply("c", "match", MISS))

    def test_worker_bad_request_is_the_clients_bad_request(self):
        def refuse(request):
            return encode_line(
                error_reply(request["id"], "bad_request", "no such table")
            )

        with scripted_worker(refuse) as (address, requests):
            with routed_to(address) as host:
                with ServiceClient(port=host.port) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.match(TruthTable(3, 0xE8))
        assert excinfo.value.error_type == "bad_request"
        assert excinfo.value.message == "worker w0: no such table"
        assert len(requests) == 1  # a client error is not retried

    @pytest.mark.parametrize("error_type", ["overloaded", "shutting_down"])
    def test_busy_worker_is_retried(self, error_type):
        def busy_once(request):
            if len(requests) == 1:
                return encode_line(
                    error_reply(request["id"], error_type, "busy")
                )
            return encode_line(ok_reply(request["id"], request["op"], MISS))

        retries = obs.registry().get("repro_fabric_retries_total")
        before = retries.value(reason=error_type)
        with scripted_worker(busy_once) as (address, requests):
            with routed_to(address) as host:
                with ServiceClient(port=host.port) as client:
                    assert client.match(TruthTable(3, 0xE8)) == MISS
        assert len(requests) == 2
        assert retries.value(reason=error_type) == before + 1


class TestOnePassPerRead:
    """A routed burst costs per read and per burst, not per request."""

    def test_burst_of_cache_hits_through_the_router(
        self, tiny_library, monkeypatch
    ):
        tables = [TruthTable(3, value) for value in range(256)]
        with ThreadedService(tiny_library) as worker:
            with routed_to(worker.address) as host:
                router = host.service
                # Warm up: the worker caches every table, the channel is open.
                pipeline(host.port, tables)
                reads, bursts, timers = [], [], []
                answer_part = router._answer_part

                def counted_part(replies, lines, newline):
                    if any(line.strip() for line in lines):
                        reads.append(len(lines))
                    return answer_part(replies, lines, newline)

                monkeypatch.setattr(router, "_answer_part", counted_part)
                flush = WorkerChannel._flush

                def counted_flush(channel):
                    if channel._lines and channel._writer is not None:
                        bursts.append(len(channel._lines))
                    flush(channel)

                monkeypatch.setattr(WorkerChannel, "_flush", counted_flush)

                def spy_timers():
                    loop = asyncio.get_running_loop()
                    call_later = loop.call_later

                    def spy(delay, callback, *args, **kwargs):
                        if (getattr(callback, "__func__", None)
                                is WorkerChannel._expire):
                            timers.append(delay)
                        return call_later(delay, callback, *args, **kwargs)

                    loop.call_later = spy

                on_loop(host, spy_timers)
                router_tasks = count_tasks(host)
                worker_tasks = count_tasks(worker)
                readlines = []
                readline = asyncio.StreamReader.readline

                async def counted_readline(reader):
                    readlines.append(1)
                    return await readline(reader)

                monkeypatch.setattr(
                    asyncio.StreamReader, "readline", counted_readline
                )
                passes_before = shard_key_passes()
                replies = pipeline(host.port, tables)
                passes = shard_key_passes() - passes_before
        assert sorted(replies) == list(range(256))
        assert all(reply["result"]["cached"] for reply in replies.values())
        # One batched shard-key pass per read of the client's lines.
        assert 1 <= passes == len(reads)
        # The channel wrote the forwards in bursts, one deadline timer each.
        assert sum(bursts) == 256
        assert len(timers) == len(bursts)
        # No task per request on either hop; one readline, the sniff of
        # the client's connection.
        assert len(router_tasks) < 8, router_tasks
        assert len(worker_tasks) < 8, worker_tasks
        assert len(readlines) <= 1
