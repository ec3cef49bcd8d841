"""Timing harness for classifier comparisons (Table III, Fig. 5).

Wall-clock measurement with per-chunk timestamps, so the Fig. 5 stability
analysis can compute not just totals but the *variance* of incremental
runtimes — the paper's point is that its classifier's runtime is linear in
the number of functions while canonical-form methods fluctuate.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.truth_table import TruthTable

__all__ = [
    "TimedRun",
    "time_classifier",
    "incremental_times",
]


@dataclass
class TimedRun:
    """Result of timing one classifier over one function set."""

    method: str
    functions: int
    classes: int
    seconds: float
    chunk_seconds: list[float] = field(default_factory=list)

    @property
    def per_function_us(self) -> float:
        return 1e6 * self.seconds / self.functions if self.functions else 0.0

    @property
    def chunk_stdev(self) -> float:
        """Spread of per-chunk runtimes — the Fig. 5 stability metric."""
        if len(self.chunk_seconds) < 2:
            return 0.0
        return statistics.stdev(self.chunk_seconds)

    @property
    def chunk_relative_spread(self) -> float:
        """stdev / mean of chunk times (dimensionless stability score)."""
        if len(self.chunk_seconds) < 2:
            return 0.0
        mean = statistics.mean(self.chunk_seconds)
        return self.chunk_stdev / mean if mean else 0.0


def time_classifier(
    classifier, tables: Sequence[TruthTable], chunks: int = 1
) -> TimedRun:
    """Time ``classifier.count_classes``-equivalent work over ``tables``.

    With ``chunks > 1`` the set is split into equal slices timed
    separately (classes are still counted globally), populating
    ``chunk_seconds`` for stability analysis.
    """
    name = getattr(classifier, "name", type(classifier).__name__)
    keys = set()
    chunk_times: list[float] = []
    slices = _split(tables, chunks)
    start_all = time.perf_counter()
    if hasattr(classifier, "key"):
        for chunk in slices:
            start = time.perf_counter()
            for tt in chunk:
                keys.add(classifier.key(tt))
            chunk_times.append(time.perf_counter() - start)
        classes = len(keys)
    else:
        # Stateful classifiers (the exact engine) classify in one shot.
        start = time.perf_counter()
        classes = classifier.classify(list(tables)).num_classes
        chunk_times.append(time.perf_counter() - start)
    total = time.perf_counter() - start_all
    return TimedRun(name, len(tables), classes, total, chunk_times)


def incremental_times(
    classifier, tables: Sequence[TruthTable], points: Sequence[int]
) -> list[tuple[int, float]]:
    """Cumulative runtime after classifying the first ``p`` functions.

    Produces the (x = #functions, y = seconds) series of the paper's
    Fig. 5 for one classifier.
    """
    series: list[tuple[int, float]] = []
    keys: set = set()
    done = 0
    elapsed = 0.0
    for point in sorted(points):
        chunk = tables[done:point]
        start = time.perf_counter()
        for tt in chunk:
            keys.add(classifier.key(tt))
        elapsed += time.perf_counter() - start
        done = point
        series.append((point, elapsed))
    return series


def _split(tables: Sequence[TruthTable], chunks: int) -> list[Sequence[TruthTable]]:
    if chunks <= 1:
        return [tables]
    size = max(1, len(tables) // chunks)
    return [tables[k : k + size] for k in range(0, len(tables), size)]
