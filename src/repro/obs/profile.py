"""Tiny profiling helpers for instrumenting hot paths.

The instrumented layers (engines, library, canonical) time whole
*batches*, not individual rows, so the per-row overhead of a
``perf_counter`` pair plus one locked histogram update amortizes to
nanoseconds.  ``timed`` is the standard shape:

    with timed(_MATCH_PHASE_SECONDS, phase="signatures"):
        ...hot path...
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.metrics import Histogram

__all__ = ["timed"]


@contextmanager
def timed(histogram: Histogram, **labels):
    """Observe the block's wall-clock duration (seconds) into *histogram*."""
    start = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - start, **labels)
