"""Dependency-free observability: metrics, tracing, profiling hooks.

Three pieces, layered bottom-up:

* :mod:`repro.obs.metrics` — thread-safe typed registry (``Counter``,
  ``Gauge``, ``Histogram`` with fixed log-scaled buckets and labels),
  snapshot-able as JSON and renderable in the Prometheus text
  exposition format.  One process-global registry (:func:`registry`)
  collects every layer's series.
* :mod:`repro.obs.tracing` — per-request ``Span``/``Trace`` contexts in
  a bounded ring with a slow-request log (``Tracer``).
* :mod:`repro.obs.profile` — the ``timed`` context manager hot paths
  use to feed histograms.

``repro.obs`` imports nothing from the rest of the package, so any
layer (kernels, engines, library, canonical, service) can instrument
itself without import cycles.
"""

from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    registry,
)
from repro.obs.profile import timed
from repro.obs.tracing import Span, Trace, Tracer

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "Tracer",
    "log_buckets",
    "registry",
    "timed",
]
