"""Typed metrics registry: counters, gauges, log-bucketed histograms.

The observability backbone of the repo.  Every instrumented layer —
service, engines, library/WAL, canonical, caches — records into one
process-global :class:`MetricsRegistry` (see :func:`registry`), which
can be read two ways:

* :meth:`MetricsRegistry.snapshot` — a JSON-ready dict, for programmatic
  consumers;
* :meth:`MetricsRegistry.render` — the Prometheus text exposition
  format, served by the daemon's ``GET /metrics``.

The daemons' ``/v1/stats`` block is a third reading of the same
series (:meth:`Counter.items`, :meth:`Histogram.series`,
:meth:`Histogram.quantile`), so the two fronts never disagree: the
registry is the only place a served event is counted.

Design constraints, in order:

1. **Dependency-free.**  Stdlib only; importable from every layer
   (including :mod:`repro.core` consumers) without cycles.
2. **Thread-safe.**  Hot paths record from the coalescer's executor
   thread, the event loop, and test harness threads concurrently; every
   metric family guards its series map with one lock.
3. **Cheap.**  Recording is one locked dict update, and the engine,
   library and canonical layers time whole batches, not rows.  There is
   no off switch: the cost is measured like any other change's, by
   paired perfbench runs (and perfbench's ``obs.tracing_overhead``).

Histograms use **fixed log-scaled buckets** (a 1-2-5 mantissa series per
decade, :func:`log_buckets`) rather than adaptive sketches: fixed bounds
make series from different processes and runs directly aggregatable,
which is what a fleet scraper needs.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "log_buckets",
    "DEFAULT_TIME_BUCKETS",
    "BATCH_SIZE_BUCKETS",
]

def log_buckets(
    low_exp: int, high_exp: int, mantissas=(1.0, 2.0, 5.0)
) -> tuple[float, ...]:
    """Fixed log-scaled bucket bounds: ``mantissas`` per decade.

    ``log_buckets(-3, 0)`` is ``(0.001, 0.002, 0.005, ..., 1.0, 2.0,
    5.0)``.  Bounds are parsed from decimal literals so their ``repr``
    round-trips cleanly in the exposition output (``1e-05``, not
    ``1.0000000000000001e-05``).
    """
    if high_exp < low_exp:
        raise ValueError(f"empty bucket range [{low_exp}, {high_exp}]")
    return tuple(
        float(f"{m}e{e}")
        for e in range(low_exp, high_exp + 1)
        for m in sorted(mantissas)
    )


#: Latency bounds: 10 microseconds to 10 seconds, 1-2-5 per decade.
DEFAULT_TIME_BUCKETS = tuple(
    b for b in log_buckets(-5, 1) if b <= 10.0
)

#: Batch-size bounds: powers of two up to the coalescer's natural range.
BATCH_SIZE_BUCKETS = tuple(float(1 << k) for k in range(0, 13))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats render as integers."""
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    """Histogram ``le`` bound: integral bounds render without ``.0``."""
    if float(bound).is_integer() and abs(bound) < 1e15:
        return str(int(bound))
    return repr(float(bound))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(names: tuple[str, ...], values: tuple) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Shared family plumbing: name/help/label validation + series map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels=()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = labels
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}

    def _key(self, labels: dict) -> tuple:
        # Hot path: build the key straight from the declared order with
        # special-cased 0- and 1-label shapes (the overwhelming majority
        # of recording calls) instead of materialising sets per call.
        names = self.label_names
        count = len(names)
        if len(labels) != count:
            self._bad_labels(labels)
        if count == 0:
            return ()
        try:
            if count == 1:
                value = labels[names[0]]
                return (value if value.__class__ is str else str(value),)
            return tuple(
                value if value.__class__ is str else str(value)
                for value in map(labels.__getitem__, names)
            )
        except KeyError:
            self._bad_labels(labels)

    def _bad_labels(self, labels: dict):
        raise ValueError(
            f"{self.name} takes labels {self.label_names}, "
            f"got {tuple(sorted(labels))}"
        )

    def clear(self) -> None:
        """Drop every series (tests; production series only ever grow)."""
        with self._lock:
            self._series.clear()


class Counter(_Metric):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def items(self) -> list[tuple[tuple, float]]:
        """Every series as ``(label values, value)``, sorted by labels."""
        with self._lock:
            return sorted(self._series.items())

    def _samples(self):
        for key, value in sorted(self._series.items()):
            yield self.name, key, value


class Gauge(_Metric):
    """A value that can go up and down (sizes, capacities, thresholds)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def _samples(self):
        for key, value in sorted(self._series.items()):
            yield self.name, key, value


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets  # per-bucket, non-cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram with an implicit ``+Inf`` overflow bucket."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, labels=(), buckets=DEFAULT_TIME_BUCKETS
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def series(self, **labels) -> dict:
        """JSON-ready readout of one labelled series (zeros if unseen)."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {
                    "count": 0,
                    "sum": 0.0,
                    "buckets": {_format_bound(b): 0 for b in self.buckets},
                }
            cumulative, total = {}, 0
            for bound, count in zip(self.buckets, series.counts):
                total += count
                cumulative[_format_bound(bound)] = total
            return {
                "count": series.count,
                "sum": series.sum,
                "buckets": cumulative,
            }

    def quantile(self, q: float, **labels) -> float | None:
        """Estimated ``q``-quantile of one series; ``None`` while empty.

        The estimate Prometheus ``histogram_quantile`` computes from the
        exposed buckets: find the bucket holding rank ``q * count`` and
        interpolate linearly inside it, the first bucket starting at 0.
        A rank in the ``+Inf`` bucket reads as the highest finite bound,
        and ``quantile(1.0)`` is the bound of the highest non-empty
        bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or not series.count:
                return None
            counts, total = list(series.counts), series.count
        rank = q * total
        below = 0
        for index, count in enumerate(counts):
            if count and below + count >= rank:
                break
            below += count
        if index == len(self.buckets):
            return self.buckets[-1]
        upper = self.buckets[index]
        lower = self.buckets[index - 1] if index else min(0.0, upper)
        fraction = (rank - below) / count
        return upper if fraction >= 1.0 else lower + (upper - lower) * fraction

    def _samples(self):
        for key, series in sorted(self._series.items()):
            cumulative = 0
            for bound, count in zip(self.buckets, series.counts):
                cumulative += count
                yield (
                    f"{self.name}_bucket",
                    key + (("le", _format_bound(bound)),),
                    cumulative,
                )
            yield (
                f"{self.name}_bucket",
                key + (("le", "+Inf"),),
                series.count,
            )
            yield f"{self.name}_sum", key, series.sum
            yield f"{self.name}_count", key, series.count


class MetricsRegistry:
    """Named collection of metric families with idempotent registration.

    Layers register their metrics at import time against the global
    registry; re-registering an existing name returns the existing
    family when the kind and label set agree (so reloading a module, or
    two layers sharing a family, is safe) and raises on any mismatch.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str, labels=()) -> Counter:
        return self._register(Counter(name, help, labels))

    def gauge(self, name: str, help: str, labels=()) -> Gauge:
        return self._register(Gauge(name, help, labels))

    def histogram(
        self, name: str, help: str, labels=(), buckets=DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is None:
                self._metrics[metric.name] = metric
                return metric
            if (
                existing.kind != metric.kind
                or existing.label_names != metric.label_names
                or (
                    isinstance(existing, Histogram)
                    and existing.buckets != metric.buckets
                )
            ):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}{existing.label_names}, cannot "
                    f"re-register as {metric.kind}{metric.label_names}"
                )
            return existing

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def families(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready state of every family (histograms cumulative)."""
        out: dict = {}
        for metric in self.families():
            if isinstance(metric, Histogram):
                with metric._lock:
                    keys = sorted(metric._series)
                series = [
                    {
                        "labels": dict(zip(metric.label_names, key)),
                        **metric.series(**dict(zip(metric.label_names, key))),
                    }
                    for key in keys
                ]
            else:
                with metric._lock:
                    items = sorted(metric._series.items())
                series = [
                    {
                        "labels": dict(zip(metric.label_names, key)),
                        "value": value,
                    }
                    for key, value in items
                ]
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "series": series,
            }
        return out

    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in self.families():
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            with metric._lock:
                samples = list(metric._samples())
            for name, key, value in samples:
                if key and isinstance(key[-1], tuple):  # histogram le pair
                    plain, extra = key[:-1], key[-1:]
                    names = metric.label_names + tuple(k for k, _ in extra)
                    values = plain + tuple(v for _, v in extra)
                else:
                    names, values = metric.label_names, key
                lines.append(
                    f"{name}{_render_labels(names, values)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


_GLOBAL = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every instrumented layer records into."""
    return _GLOBAL
