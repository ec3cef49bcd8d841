"""Unit tests for spans, traces, and the bounded trace rings."""

import logging

import pytest

from repro.obs import Trace, Tracer


class TestTrace:
    def test_span_context_manager_records_interval(self):
        trace = Trace("match")
        with trace.span("signatures", {"batch": 4}):
            pass
        assert [s.name for s in trace.spans] == ["signatures"]
        span = trace.spans[0]
        assert span.meta == {"batch": 4}
        assert span.end >= span.start

    def test_add_span_and_as_dict_offsets(self):
        trace = Trace("match", meta={"transport": "ndjson"})
        trace.add_span(
            "queue", trace.origin, trace.origin + 0.002, {"batch": 7}
        )
        trace.annotate(cache="miss")
        out = trace.as_dict()
        assert out["op"] == "match"
        assert out["meta"] == {"transport": "ndjson", "cache": "miss"}
        assert out["duration_ms"] is None  # not finished yet
        (span,) = out["spans"]
        assert span["name"] == "queue"
        assert span["start_ms"] == 0.0
        assert span["duration_ms"] == pytest.approx(2.0)
        assert span["meta"] == {"batch": 7}

    def test_trace_ids_are_unique(self):
        ids = {Trace("x").trace_id for _ in range(100)}
        assert len(ids) == 100


class TestTracer:
    def test_finish_sets_duration_and_stores(self):
        tracer = Tracer(capacity=8, slow_ms=0)
        trace = tracer.start("match")
        tracer.finish(trace)
        assert trace.duration_ms is not None and trace.duration_ms >= 0
        assert tracer.finished_total == 1
        (recent,) = tracer.recent()
        assert recent["trace_id"] == trace.trace_id

    def test_ring_is_bounded_newest_first(self):
        tracer = Tracer(capacity=3, slow_ms=0)
        traces = [tracer.start(f"op{i}") for i in range(5)]
        for trace in traces:
            tracer.finish(trace)
        recent = tracer.recent()
        assert [t["op"] for t in recent] == ["op4", "op3", "op2"]
        assert tracer.finished_total == 5
        assert tracer.recent(limit=1)[0]["op"] == "op4"

    def test_slow_threshold_splits_rings(self, caplog):
        tracer = Tracer(capacity=8, slow_ms=1e-9)  # everything is slow
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            tracer.finish(tracer.start("match"))
        assert tracer.slow_total == 1
        assert len(tracer.slow_recent()) == 1
        assert "slow request" in caplog.text

    def test_slow_ms_zero_disables_slow_ring(self):
        tracer = Tracer(capacity=8, slow_ms=0)
        tracer.finish(tracer.start("match"))
        assert tracer.slow_total == 0
        assert tracer.slow_recent() == []
        assert tracer.finished_total == 1

    def test_snapshot(self):
        tracer = Tracer(capacity=4, slow_ms=123.0)
        tracer.finish(tracer.start("match"))
        assert tracer.snapshot() == {
            "capacity": 4,
            "stored": 1,
            "sample_every": 1,
            "started_total": 1,
            "finished_total": 1,
            "slow_ms": 123.0,
            "slow_total": 0,
        }

    def test_head_sampling_every_nth(self):
        tracer = Tracer(capacity=16, slow_ms=0, sample_every=4)
        traced = [tracer.start("match") for _ in range(8)]
        sampled = [t for t in traced if t is not None]
        assert len(sampled) == 2  # requests 1 and 5
        assert traced[0] is not None and traced[4] is not None
        for trace in traced:
            tracer.finish(trace)  # an unsampled None trace is ignored
        assert tracer.started_total == 2
        assert tracer.finished_total == 2

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)
