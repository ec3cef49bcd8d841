"""End-to-end daemon tests: sockets, both protocols, drain, soak.

A session-scoped :class:`ThreadedService` hosts the exhaustive n<=3
library; every served answer is re-checked against the offline
``library.match`` path, so these tests double as client/server parity
checks.  The SIGTERM drain runs against a real ``repro serve``
subprocess — the only way to test signal handling honestly.
"""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.service import (
    MAX_LINE_BYTES,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    ThreadedService,
    parse_address,
)


@pytest.fixture(scope="module")
def service(tiny_library):
    with ThreadedService(tiny_library, max_batch=32, max_wait_ms=1.0) as svc:
        yield svc


@pytest.fixture()
def client(service):
    with ServiceClient(port=service.port) as c:
        yield c


def raw_exchange(port: int, payload: bytes, recv_lines: int = 1) -> list[bytes]:
    """Write raw bytes, read reply lines — for malformed-input tests."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        handle = sock.makefile("rb")
        return [handle.readline() for _ in range(recv_lines)]


class TestAddressParsing:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:8355") == ("127.0.0.1", 8355)

    def test_parse_address_rejects_garbage(self):
        for bad in ("nope", ":80", "host:", "host:many", "host:0"):
            with pytest.raises(ValueError):
                parse_address(bad)


class TestRoundTrips:
    def test_ping(self, client, tiny_library):
        assert client.ping() == {
            "pong": True,
            "classes": tiny_library.num_classes,
        }

    def test_match_hit_verifies_offline(self, client, tiny_library):
        query = TruthTable(3, 0xE8)
        result = client.match(query)
        offline = tiny_library.match(query)
        assert result["hit"]
        assert result["class_id"] == offline.class_id
        assert ServiceClient.verify(result, query)

    def test_match_by_string_payloads(self, client):
        assert client.match("11101000")["class_id"] == client.match(
            "0xe8", n=3
        )["class_id"]

    def test_classify(self, client, tiny_library):
        query = TruthTable(3, 0x96)
        result = client.classify(query)
        assert result["known"]
        assert result["class_id"] == tiny_library.lookup(query).class_id

    def test_classify_unknown_arity_is_answered(self, client, tiny_library):
        query = TruthTable.majority(5)
        result = client.classify(query)
        assert not result["known"]
        assert result["class_id"].startswith("n5-")
        assert client.match(query) == {"hit": False, "n": 5, "cached": False}

    def test_cached_flag_on_repeat(self, service, tiny_library):
        query = TruthTable(3, 0x7C)
        with ServiceClient(port=service.port) as c:
            first = c.match(query)
            second = c.match(query)
        assert first["hit"] and not first["cached"]
        assert second["cached"]
        assert first["class_id"] == second["class_id"]

    def test_stats_reflects_traffic(self, client):
        client.ping()
        before = client.stats()
        client.match(TruthTable(3, 0x1E))
        after = client.stats()
        assert after["requests_total"] >= before["requests_total"] + 2
        assert after["requests_by_op"]["match"] >= 1
        assert after["batches"] >= 1
        assert after["latency_samples"] >= 1

    def test_pipelined_match_many(self, client, tiny_library):
        rng = random.Random(11)
        queries = [
            TruthTable.random(3, rng).apply(random_transform(3, rng))
            for _ in range(64)
        ]
        results = client.match_many(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            offline = tiny_library.match(query)
            assert result["hit"] == (offline is not None)
            if result["hit"]:
                assert result["class_id"] == offline.class_id
                assert ServiceClient.verify(result, query)


class TestRejections:
    def test_malformed_json_line(self, service):
        (line,) = raw_exchange(service.port, b"{this is not json}\n")
        reply = json.loads(line)
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad_request"

    def test_bad_request_echoes_id(self, service):
        (line,) = raw_exchange(
            service.port, b'{"id": 41, "op": "explode"}\n'
        )
        reply = json.loads(line)
        assert reply["id"] == 41
        assert reply["error"]["type"] == "bad_request"

    def test_bad_table_payload(self, service):
        (line,) = raw_exchange(
            service.port, b'{"op": "match", "table": "zzz"}\n'
        )
        assert json.loads(line)["error"]["type"] == "bad_request"

    def test_oversized_line_rejected_and_connection_closed(self, service):
        blob = b'{"op": "match", "table": "' + b"0" * (MAX_LINE_BYTES + 64)
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(blob)  # no newline needed — limit trips first
            handle = sock.makefile("rb")
            reply = json.loads(handle.readline())
            assert reply["error"]["type"] == "payload_too_large"
            assert handle.readline() == b""  # daemon hung up

    def test_empty_lines_are_ignored(self, service):
        (line,) = raw_exchange(
            service.port, b"\n\n" + b'{"op": "ping"}\n'
        )
        assert json.loads(line)["ok"] is True

    def test_client_raises_typed_service_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.classify("zzz")
        assert excinfo.value.error_type == "bad_request"


class TestHttpFront:
    def get(self, port, path):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def post(self, port, path, body):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(
                "POST",
                path,
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def test_healthz(self, service, tiny_library):
        status, body = self.get(service.port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["classes"] == tiny_library.num_classes
        assert body["arities"] == [2, 3]

    def test_http_match_parity_with_ndjson(self, service, tiny_library):
        query = TruthTable(3, 0xE8)
        status, body = self.post(
            service.port, "/v1/match", {"table": "0xe8", "n": 3}
        )
        assert status == 200
        result = body["result"]
        assert result["class_id"] == tiny_library.match(query).class_id
        assert ServiceClient.verify(result, query)

    def test_http_classify(self, service):
        status, body = self.post(
            service.port, "/v1/classify", {"table": "0110"}
        )
        assert status == 200
        assert body["result"]["known"]

    def test_http_stats(self, service):
        status, body = self.get(service.port, "/v1/stats")
        assert status == 200
        assert "mean_batch_size" in body

    def test_http_bad_body_is_400(self, service):
        status, body = self.post(service.port, "/v1/match", ["not", "a", "dict"])
        assert status == 400
        assert body["error"]["type"] == "bad_request"

    def test_http_unknown_route_is_400(self, service):
        status, body = self.get(service.port, "/nope")
        assert status == 400

    def test_http_oversized_body_is_413(self, service):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/match")
            conn.putheader("Content-Length", str(MAX_LINE_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()


class TestConcurrencySoak:
    def test_many_clients_agree_with_offline_library(
        self, service, tiny_library
    ):
        rng = random.Random(2023)
        workload = [
            TruthTable.random(3, rng).apply(random_transform(3, rng))
            for _ in range(240)
        ]
        chunks = [workload[i::8] for i in range(8)]

        def run_chunk(queries):
            with ServiceClient(port=service.port) as c:
                return c.match_many(queries)

        with ThreadPoolExecutor(max_workers=8) as pool:
            all_results = list(pool.map(run_chunk, chunks))

        checked = 0
        for queries, results in zip(chunks, all_results):
            for query, result in zip(queries, results):
                offline = tiny_library.match(query)
                assert result["hit"] == (offline is not None)
                if result["hit"]:
                    assert result["class_id"] == offline.class_id
                    assert ServiceClient.verify(result, query)
                checked += 1
        assert checked == 240


class TestSigtermDrain:
    def test_serve_subprocess_drains_on_sigterm(self, tmp_path, tiny_library):
        library_dir = tmp_path / "lib"
        tiny_library.save(library_dir)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--library", str(library_dir), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            ready = process.stdout.readline()
            assert "serving" in ready, ready
            port = int(ready.rsplit(":", 1)[1])
            with ServiceClient(port=port) as c:
                result = c.match(TruthTable(3, 0xE8))
                assert result["hit"]
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "drained, bye" in out
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_threaded_service_stop_is_idempotent(self, tiny_library):
        svc = ThreadedService(tiny_library)
        svc.start()
        port = svc.port
        with ServiceClient(port=port) as c:
            assert c.ping()["pong"]
        svc.stop()
        svc.stop()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
                time.sleep(0.05)
            except OSError:
                break
        else:
            pytest.fail("listener still accepting after stop()")

    def test_stop_with_idle_client_connected_is_prompt(self, tiny_library):
        # Since Python 3.12.1, Server.wait_closed() waits for every
        # connection to drop; stop() must close the connections first.
        svc = ThreadedService(tiny_library).start()
        idle = ServiceClient(port=svc.port)
        try:
            assert idle.ping()["pong"]  # connected, then left idle
            started = time.monotonic()
            svc.stop()
            assert time.monotonic() - started < 5.0
        finally:
            idle.close()
            svc.stop()

    def test_stop_with_a_client_that_never_reads_is_bounded(self, tiny_library):
        # Replies to this client pile up until every reply write waits in
        # drain(); stop() must still finish after its 5-s grace period.
        svc = ThreadedService(tiny_library).start()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            sock.connect(("127.0.0.1", svc.port))
            sock.settimeout(2.0)
            lines = b'{"op": "match", "id": 1, "table": "0xe8", "n": 3}\n' * 256
            with pytest.raises(socket.timeout):
                for _ in range(10_000):  # until the daemon stops reading
                    sock.sendall(lines)
            started = time.monotonic()
            svc.stop()
            assert time.monotonic() - started < 15.0
        finally:
            sock.close()
            svc.stop()


class TestUnavailable:
    """Transport failures surface as the typed ServiceUnavailableError.

    The router's CLI retry loop and the fabric's chaos tolerance both
    key off this one exception type — a client that leaked raw OSErrors
    or socket.timeouts would make "retry on unavailability" impossible
    to express.
    """

    def test_is_a_typed_service_error(self):
        error = ServiceUnavailableError("nobody home")
        assert isinstance(error, ServiceError)
        assert error.error_type == "unavailable"

    def test_connection_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        client = ServiceClient(port=dead_port, timeout=2.0)
        with pytest.raises(ServiceUnavailableError):
            client.ping()

    def test_read_timeout(self):
        # An accepting socket that never answers: the client must give
        # up after its read timeout, not hang.
        hole = socket.socket()
        hole.bind(("127.0.0.1", 0))
        hole.listen(1)
        try:
            client = ServiceClient(
                port=hole.getsockname()[1], timeout=0.3
            )
            t0 = time.monotonic()
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.ping()
            assert time.monotonic() - t0 < 5.0
            assert "no reply" in str(excinfo.value)
        finally:
            hole.close()

    def test_peer_hangup_mid_request(self):
        # A server that accepts and immediately closes: the empty read
        # is a typed unavailability, and the client closes its socket so
        # the next call re-dials instead of writing into a dead pipe.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def accept_and_hang_up():
            conn, _ = listener.accept()
            conn.close()

        from threading import Thread

        thread = Thread(target=accept_and_hang_up, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                port=listener.getsockname()[1], timeout=2.0
            )
            # Depending on who wins the race, the failure is either an
            # empty read ("closed the connection") or ECONNRESET on the
            # write — both must surface as the same typed error.
            with pytest.raises(ServiceUnavailableError):
                client.ping()
            assert client._sock is None  # ready to re-dial
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_connect_timeout_is_separate_knob(self):
        client = ServiceClient(port=1, timeout=30.0, connect_timeout=0.5)
        assert client.connect_timeout == 0.5
        assert client.timeout == 30.0
        default = ServiceClient(port=1, timeout=7.0)
        assert default.connect_timeout == 7.0
