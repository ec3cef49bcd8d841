"""The observability surface of the daemon, end to end.

Covers the three new read paths — ``GET /metrics`` (Prometheus text),
``GET /v1/trace/recent`` (per-stage spans), the identity block in
``stats`` — plus the thread-safety contract of the ``stats`` readout,
which reads the same registry ``/metrics`` renders.

Registry assertions are **deltas**: the process-global registry
accumulates across every test in the session, so tests capture a
before-value and assert growth, never absolute counts.
"""

import json
import socket
import sys
import threading

import pytest

from repro import obs
from repro.core.truth_table import TruthTable
from repro.service import ServiceClient, ThreadedService
from repro.service.base import LineProtocolServer
from repro.service.client import http_get


@pytest.fixture(scope="module")
def observed_service(tiny_library):
    """One daemon, every request traced, slow threshold set to catch all."""
    with ThreadedService(tiny_library, slow_ms=1e-6, trace_sample=1) as svc:
        with ServiceClient(port=svc.port) as client:
            maj = TruthTable.majority(3)
            assert client.match(maj)["hit"]
            assert client.match(maj)["cached"]  # second hit: cache path
            client.classify(maj)
            client.ping()
        yield svc


class TestMetricsEndpoint:
    def test_exposition_is_well_formed(self, observed_service):
        status, text = http_get(observed_service.address, "/metrics")
        assert status == 200
        assert "# TYPE repro_service_requests_total counter" in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        for line in lines:  # every sample line is "name[{labels}] value"
            name_part, _, value_part = line.rpartition(" ")
            assert name_part
            float(value_part.replace("+Inf", "inf"))

    def test_series_from_every_layer_present(self, observed_service):
        _, text = http_get(observed_service.address, "/metrics")
        for family in (
            "repro_service_requests_total",  # service
            "repro_cache_match_lookups_total",  # match cache
            "repro_library_match_queries_total",  # library matcher
            "repro_canonical_search_steps_total",  # canonical layer
            "repro_service_batch_size",  # coalescer's engine batches
        ):
            assert f"# TYPE {family}" in text

    def test_request_counts_cover_served_ops(self, observed_service):
        _, text = http_get(observed_service.address, "/metrics")
        by_line = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line.startswith("repro_service_requests_total{")
        )
        assert float(by_line['repro_service_requests_total{op="match"}']) >= 2
        assert float(by_line['repro_service_requests_total{op="classify"}']) >= 1
        assert float(by_line['repro_service_requests_total{op="ping"}']) >= 1

    def test_prometheus_content_type_header(self, observed_service):
        host, port = observed_service.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1").lower()
        assert "content-type: text/plain; version=0.0.4" in head


class TestTraceEndpoint:
    def test_recent_traces_have_per_stage_spans(self, observed_service):
        status, body = http_get(
            observed_service.address, "/v1/trace/recent?limit=50"
        )
        assert status == 200
        payload = json.loads(body)
        by_op = {}
        for trace in payload["traces"]:
            by_op.setdefault(trace["op"], trace)
        # The uncached match went through the whole pipeline.
        match_spans = {
            s["name"]
            for t in payload["traces"]
            if t["op"] == "match"
            for s in t["spans"]
        }
        # The library signs inside its one match call: no span of its own.
        assert {"decode", "queue", "match", "reply"} <= match_spans
        assert "signatures" not in match_spans
        # A classify request resolves by canonical form alone: it pays
        # for no signature pass.
        classify_spans = {s["name"] for s in by_op["classify"]["spans"]}
        assert "classify" in classify_spans
        assert "signatures" not in classify_spans
        for trace in payload["traces"]:
            assert trace["duration_ms"] >= 0
            assert trace["meta"]["transport"] == "ndjson"
            for span in trace["spans"]:
                assert span["duration_ms"] >= 0

    def test_learned_miss_is_timed_as_the_learn_phase_of_match(
        self, tiny_library, tmp_path
    ):
        from repro.library import LearningLibrary

        tiny_library.save(tmp_path)
        learner = LearningLibrary.open(tmp_path)
        learn_seconds = obs.registry().get("repro_library_match_seconds")
        before = learn_seconds.series(phase="learn")["count"]
        with ThreadedService(
            learner.library, learner=learner, trace_sample=1
        ) as svc, ServiceClient(port=svc.port) as client:
            miss = TruthTable.from_hex(5, "1ee17a2f")
            assert client.match(miss)["hit"]
            _, body = http_get(svc.address, "/v1/trace/recent")
        assert learn_seconds.series(phase="learn")["count"] == before + 1
        (trace,) = [t for t in json.loads(body)["traces"] if t["op"] == "match"]
        names = [s["name"] for s in trace["spans"]]
        assert names.count("match") == 1 and "learn" not in names

    def test_cache_hit_is_annotated_and_skips_engine_stages(
        self, observed_service
    ):
        _, body = http_get(observed_service.address, "/v1/trace/recent")
        cached = [
            t
            for t in json.loads(body)["traces"]
            if t["op"] == "match" and t.get("meta", {}).get("cache") == "hit"
        ]
        assert cached, "expected a cache-hit trace"
        names = {s["name"] for s in cached[0]["spans"]}
        assert "signatures" not in names and "queue" not in names

    def test_slow_ring_and_limit_param(self, observed_service):
        _, body = http_get(observed_service.address, "/v1/trace/recent?limit=1")
        payload = json.loads(body)
        assert len(payload["traces"]) == 1
        assert len(payload["slow"]) == 1  # slow_ms=1e-6: everything is slow
        assert payload["tracer"]["slow_total"] >= 4
        assert payload["tracer"]["slow_ms"] == pytest.approx(1e-6)

    def test_bad_limit_is_a_400(self, observed_service):
        status, body = http_get(
            observed_service.address, "/v1/trace/recent?limit=nope"
        )
        assert status == 400
        assert json.loads(body)["error"]["type"] == "bad_request"


class TestTraceSampling:
    def test_default_daemon_head_samples(self, tiny_library):
        """With the default 1-in-8 sampling, 4 requests yield one trace."""
        with ThreadedService(tiny_library) as svc:
            with ServiceClient(port=svc.port) as client:
                for _ in range(4):
                    client.ping()
            _, body = http_get(svc.address, "/v1/trace/recent")
            payload = json.loads(body)
        assert payload["tracer"]["sample_every"] == 8
        traces = [t for t in payload["traces"] if t["op"] == "ping"]
        assert len(traces) == 1  # the first request; 2-4 unsampled


class TestIdentityBlock:
    def test_identity_in_stats_over_both_fronts(self, observed_service):
        status, body = http_get(observed_service.address, "/v1/stats")
        assert status == 200
        http_identity = json.loads(body)["identity"]
        with ServiceClient(port=observed_service.port) as client:
            ndjson_identity = client.stats()["identity"]
        assert http_identity == ndjson_identity
        assert "engine" not in http_identity  # one engine: nothing to report
        assert http_identity["transports"] == ["ndjson", "http/1.0"]
        assert http_identity["learning"] is False
        assert http_identity["pid"] > 0
        assert http_identity["address"] == observed_service.address
        assert http_identity["slow_ms"] == pytest.approx(1e-6)
        assert http_identity["trace_sample"] == 1


class TestRegistryDeltas:
    def test_requests_and_batches_grow_with_traffic(self, tiny_library):
        reg = obs.registry()
        requests = reg.get("repro_service_requests_total")
        batches = reg.get("repro_service_batch_size")
        lookups = reg.get("repro_cache_match_lookups_total")
        before = (
            requests.value(op="match"),
            batches.series()["count"],
            lookups.value(result="miss"),
        )
        with ThreadedService(tiny_library) as svc:
            with ServiceClient(port=svc.port) as client:
                client.match(TruthTable.majority(3))
        assert requests.value(op="match") == before[0] + 1
        assert batches.series()["count"] >= before[1] + 1
        assert lookups.value(result="miss") == before[2] + 1

    def test_stats_counts_equal_their_metrics_series(self, observed_service):
        status, body = http_get(observed_service.address, "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        _, text = http_get(observed_service.address, "/metrics")
        samples = {
            name: float(value)
            for name, value in (
                line.rsplit(" ", 1)
                for line in text.splitlines()
                if line and not line.startswith("#")
            )
        }
        assert stats["requests_by_op"]["match"] == samples[
            'repro_service_requests_total{op="match"}'
        ]
        assert stats["cache_hits"] == samples[
            'repro_cache_match_lookups_total{result="hit"}'
        ]
        assert stats["batches"] == samples["repro_service_batch_size_count"]
        assert stats["batched_requests"] == samples[
            "repro_service_batch_size_sum"
        ]
        assert stats["classes_minted"] == samples.get(
            "repro_library_classes_minted_total", 0
        )
        # Derived figures are computed from those same series.
        assert stats["mean_batch_size"] == round(
            stats["batched_requests"] / stats["batches"], 3
        )
        assert str(stats["max_batch_size"]) in {
            bound for bound in obs.registry().get(
                "repro_service_batch_size"
            ).series()["buckets"]
        }
        hits, misses = stats["cache_hits"], stats["cache_misses"]
        assert stats["cache_hit_rate"] == round(hits / (hits + misses), 4)
        assert 0 < stats["latency_p50_ms"] <= stats["latency_p99_ms"]
        # The stats request itself is counted before the readout, its
        # reply (timed once, so one latency sample) after it.
        assert stats["requests_by_op"]["stats"] == samples[
            'repro_service_requests_total{op="stats"}'
        ]
        assert stats["replies_ok"] + 1 == samples[
            "repro_service_request_seconds_count"
        ]
        assert stats["latency_samples"] + 1 == samples[
            "repro_service_request_seconds_count"
        ]


class TestServiceMetricsThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        """Batch/mint accounting races the loop's request accounting.

        The coalescer's executor thread records batches and minted
        classes while the event loop records requests, reply latencies,
        cache lookups and errors.  Threads record into the same families those
        sites use, and the ``stats`` readout must show every increment.
        """
        reg = obs.registry()
        requests = reg.get("repro_service_requests_total")
        latency = reg.get("repro_service_request_seconds")
        lookups = reg.get("repro_cache_match_lookups_total")
        batch_sizes = reg.get("repro_service_batch_size")
        minted = reg.get("repro_library_classes_minted_total")
        errors = reg.get("repro_service_errors_total")
        readout = LineProtocolServer()._stats_snapshot
        before = readout()
        rounds, workers = 5_000, 4

        def loop_side():
            for _ in range(rounds):
                requests.inc(op="match")
                latency.observe(0.001)
                lookups.inc(result="miss")

        def executor_side():
            for _ in range(rounds):
                batch_sizes.observe(8)
                minted.inc()
                errors.inc(type="overloaded")

        threads = [
            threading.Thread(target=loop_side if i % 2 else executor_side)
            for i in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving mid-update
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        after = readout()
        per_side = rounds * (workers // 2)

        def grew(key, label=None):
            if label is None:
                return after[key] - before[key]
            return after[key].get(label, 0) - before[key].get(label, 0)

        assert grew("requests_by_op", "match") == per_side
        assert grew("replies_ok") == per_side
        assert grew("latency_samples") == per_side
        assert grew("cache_misses") == per_side
        assert grew("batches") == per_side
        assert grew("batched_requests") == per_side * 8
        assert grew("classes_minted") == per_side
        assert grew("errors_by_type", "overloaded") == per_side
        assert after["max_batch_size"] >= 8
