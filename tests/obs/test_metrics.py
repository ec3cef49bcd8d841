"""Unit tests for the metrics registry primitives.

These tests build *private* :class:`MetricsRegistry` instances rather
than touching the process-global one: the global registry accumulates
counts from every other test in the session, so asserting absolute
values there would be order-dependent.  The global registry is covered
by the service-level tests (which assert deltas).
"""

import threading

import pytest

from repro.obs import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    set_enabled,
)


class TestLogBuckets:
    def test_one_two_five_per_decade(self):
        assert log_buckets(-1, 0) == (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

    def test_bounds_roundtrip_cleanly(self):
        # float("1e-05") has an exact short repr; 10**-5 may not.
        for bound in log_buckets(-6, 3):
            assert float(repr(bound)) == bound

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            log_buckets(2, 1)

    def test_default_time_buckets_span_10us_to_10s(self):
        assert DEFAULT_TIME_BUCKETS[0] == 1e-5
        assert DEFAULT_TIME_BUCKETS[-1] == 10.0
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)

    def test_batch_size_buckets_are_powers_of_two(self):
        assert BATCH_SIZE_BUCKETS[0] == 1.0
        assert all(
            b == 2 * a for a, b in zip(BATCH_SIZE_BUCKETS, BATCH_SIZE_BUCKETS[1:])
        )


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("t_total", "test")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_items_lists_every_series_sorted(self):
        c = Counter("t_total", "test", labels=("op",))
        assert c.items() == []
        c.inc(op="match")
        c.inc(2, op="classify")
        assert c.items() == [(("classify",), 2.0), (("match",), 1.0)]

    def test_labelled_series_are_independent(self):
        c = Counter("t_total", "test", labels=("op",))
        c.inc(op="match")
        c.inc(3, op="classify")
        assert c.value(op="match") == 1.0
        assert c.value(op="classify") == 3.0
        assert c.value(op="ping") == 0.0

    def test_negative_increment_rejected(self):
        c = Counter("t_total", "test")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_wrong_label_set_rejected(self):
        c = Counter("t_total", "test", labels=("op",))
        with pytest.raises(ValueError):
            c.inc(kind="x")
        with pytest.raises(ValueError):
            c.inc()  # missing the required label

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("9starts_with_digit", "test")
        with pytest.raises(ValueError):
            Counter("ok_total", "test", labels=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("t_bytes", "test")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12.0

    def test_gauges_can_go_negative(self):
        g = Gauge("t_bytes", "test")
        g.dec(4)
        assert g.value() == -4.0


class TestHistogram:
    def test_bucket_placement_le_semantics(self):
        h = Histogram("t_seconds", "test", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 100.0):
            h.observe(value)
        series = h.series()
        # Cumulative: le=1 catches {0.5, 1.0}; le=2 adds {1.5, 2.0}; ...
        assert series["buckets"] == {"1": 2, "2": 4, "5": 6}
        assert series["count"] == 7  # +Inf bucket catches 100.0
        assert series["sum"] == pytest.approx(114.9)

    def test_unseen_series_reads_as_zeros(self):
        h = Histogram("t_seconds", "test", buckets=(1.0,), labels=("op",))
        assert h.series(op="never") == {"count": 0, "sum": 0.0, "buckets": {"1": 0}}

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t_seconds", "test", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t_seconds", "test", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t_seconds", "test", buckets=())


class TestHistogramQuantile:
    def test_empty_series_has_no_quantile(self):
        h = Histogram("t_seconds", "test", labels=("op",), buckets=(1.0, 2.0))
        assert h.quantile(0.5, op="match") is None
        h.observe(1.5, op="classify")
        assert h.quantile(0.5, op="match") is None

    def test_single_bucket_interpolates_from_zero(self):
        h = Histogram("t_seconds", "test", buckets=(4.0, 8.0))
        for _ in range(4):
            h.observe(3.0)
        # All four samples in (0, 4]: rank q * 4 sits q of the way up.
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_interpolates_inside_the_rank_bucket(self):
        h = Histogram("t_seconds", "test", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            h.observe(value)
        # Rank 3 of 4 is the one sample of (1, 2]: its upper bound.
        assert h.quantile(0.75) == 2.0
        # Rank 3.5 is halfway through the one sample of (2, 4].
        assert h.quantile(0.875) == pytest.approx(3.0)
        # Rank 2 is the top of (0, 1]; empty buckets are skipped.
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.25) == pytest.approx(0.5)

    def test_quantile_one_is_highest_non_empty_bound(self):
        h = Histogram("t_size", "test", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (1, 3, 4):
            h.observe(value)
        assert h.quantile(1.0) == 4.0

    def test_inf_bucket_reads_as_highest_finite_bound(self):
        h = Histogram("t_seconds", "test", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(100.0)
        assert h.quantile(0.99) == 2.0
        assert h.quantile(1.0) == 2.0
        assert h.quantile(0.25) == pytest.approx(0.5)

    @pytest.mark.parametrize("q", [-0.01, 1.01, 2.0])
    def test_q_outside_unit_interval_rejected(self, q):
        h = Histogram("t_seconds", "test", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.quantile(q)


class TestRegistry:
    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "first")
        b = reg.counter("x_total", "second help ignored")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "h")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "h")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "h", labels=("op",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "h", labels=("kind",))

    def test_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("x_seconds", "h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("x_seconds", "h", buckets=(1.0, 3.0))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "ha", labels=("op",)).inc(op="m")
        reg.histogram("b_seconds", "hb", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["series"] == [
            {"labels": {"op": "m"}, "value": 1.0}
        ]
        assert snap["b_seconds"]["series"][0]["buckets"] == {"1": 1}

    def test_render_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z_total", "hz").inc()
        reg.counter("a_total", "ha").inc()
        text = reg.render()
        assert text.index("a_total") < text.index("z_total")
        assert text.endswith("\n")

    def test_render_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("e_total", "he", labels=("msg",)).inc(msg='say "hi"\n')
        assert 'msg="say \\"hi\\"\\n"' in reg.render()


class TestEnabledFlag:
    def test_disabled_recording_is_a_noop(self):
        c = Counter("t_total", "test")
        h = Histogram("t_seconds", "test", buckets=(1.0,))
        previous = set_enabled(False)
        try:
            c.inc(5)
            h.observe(0.5)
        finally:
            set_enabled(previous)
        assert c.value() == 0.0
        assert h.series()["count"] == 0

    def test_set_enabled_returns_previous_state(self):
        previous = set_enabled(False)
        try:
            assert set_enabled(True) is False
            assert set_enabled(True) is True
        finally:
            set_enabled(previous)


class TestThreadSafety:
    def test_concurrent_counter_increments_all_land(self):
        c = Counter("t_total", "test", labels=("op",))
        h = Histogram("t_seconds", "test", buckets=(1.0, 2.0))
        rounds, workers = 2_000, 8

        def hammer(op):
            for _ in range(rounds):
                c.inc(op=op)
                h.observe(0.5)

        threads = [
            threading.Thread(target=hammer, args=(f"op{i % 2}",))
            for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(op="op0") + c.value(op="op1") == rounds * workers
        series = h.series()
        assert series["count"] == rounds * workers
        assert series["buckets"]["1"] == rounds * workers
