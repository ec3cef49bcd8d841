"""Fig. 5 — runtime stability on consecutive-encoding random sets.

The paper plots cumulative runtime against the number of classified
functions for 5-bit and 7-bit sets, contrasting its signature classifier
(nearly linear, workload-independent) with the canonical-form method of
``testnpn -11`` (widely fluctuating).  :func:`run_fig5` reproduces both
series plus a stability score: the relative spread of per-chunk runtimes,
which is near zero for a linear-time method.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.timing import incremental_times, time_classifier
from repro.baselines import get_classifier
from repro.experiments.workload_cache import scale_settings
from repro.workloads.random_functions import consecutive_tables

__all__ = ["run_fig5", "fig5_series"]


def fig5_series(
    n: int,
    counts: Sequence[int],
    methods: Sequence[str] = ("ours", "zhou20"),
    seed: int = 42,
) -> dict:
    """Cumulative-runtime series for one bit width.

    Returns ``{"n": n, "points": counts, method: [seconds...], ...}``.
    Each count uses a fresh consecutive block (different random start), as
    in the paper's per-point regeneration.
    """
    result: dict = {"n": n, "points": list(counts)}
    tables = consecutive_tables(n, max(counts), seed=seed)
    for method in methods:
        series = incremental_times(
            get_classifier(method), tables, points=sorted(counts)
        )
        result[method] = [round(seconds, 4) for __, seconds in series]
    return result


def block_stability(
    n: int,
    block_size: int,
    methods: Sequence[str] = ("ours", "zhou20"),
    blocks: int = 10,
    base_seed: int = 1,
) -> dict[str, float]:
    """Relative spread of runtimes across independently drawn blocks.

    The paper's Fig. 5 x-axis regenerates a *fresh* consecutive set per
    point ("we randomly generate a fixed number of Boolean functions ...
    for each bit") and observes that the canonical-form method's runtime
    fluctuates widely between sets while the signature classifier's does
    not.  This measures exactly that: ``blocks`` consecutive sets with
    different random starts are each timed whole, and the score is
    ``stdev / mean`` of the block times.  Workload-*independent* methods
    score near zero; methods whose cost depends on the functions'
    symmetry structure score higher.
    """
    import statistics

    scores: dict[str, float] = {}
    sets = [
        consecutive_tables(n, block_size, seed=base_seed + 101 * k)
        for k in range(blocks)
    ]
    for method in methods:
        classifier = get_classifier(method)
        times = [time_classifier(classifier, tables).seconds for tables in sets]
        mean = statistics.mean(times)
        scores[method] = statistics.stdev(times) / mean if mean else 0.0
    return scores


def run_fig5(
    scale: str | None = None,
    widths: Sequence[int] = (5, 7),
    methods: Sequence[str] = ("ours", "zhou20"),
) -> list[dict]:
    """Regenerate both Fig. 5 panels plus stability scores.

    The ``stability`` entries give each method's relative spread of
    runtimes across ten independently drawn consecutive sets (see
    :func:`block_stability`) — the quantitative version of "our
    classifier has stable runtime".
    """
    settings = scale_settings(scale)
    counts = settings.fig5_counts
    rows = []
    for n in widths:
        row = fig5_series(n, counts, methods)
        scores = block_stability(n, counts[0], methods, base_seed=7 * n + 1)
        for label in scores:
            row[f"{label}_stability"] = round(scores[label], 4)
        rows.append(row)
    return rows
