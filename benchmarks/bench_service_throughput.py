"""Bench: the service's coalescer must amortise like the offline engine.

The acceptance contract of the online service (ISSUE 4): on 2000 random
6-variable queries pipelined over one connection against a prebuilt
library, serving with ``max_batch=256`` must deliver **at least 5x** the
throughput of ``max_batch=1`` (request-at-a-time serving, everything
else identical) — and every served witness must re-verify *offline*:
decoding the reply's transform and representative and applying one to
the other must reproduce the query exactly.

The match cache is disabled for the measurement (queries are unique
anyway) so the ratio isolates what coalescing buys on the engine path:
one vectorized ``PackedTables`` signature pass per batch instead of per
request.  The coalesced side takes the best of two runs so a scheduler
blip on a shared runner cannot fail the ratio; noise on the (much
longer) serial side only inflates the measured speedup.

Both daemons run in this process and the service metrics are
process-wide, so each run's ``batches``/``mean_batch_size``/
``max_batch_size`` are read as the growth of the
``repro_service_batch_size`` histogram across that run.  Per-request
latency is measured by perfbench (``service.rtt_p50_ms``/``p99_ms``),
not here.

Results go to ``results/service_throughput.md`` (human) and
``results/BENCH_service.json`` (machine, for cross-PR tracking).
"""

import time

import pytest

from repro import obs
from repro.analysis.tables import write_markdown_table
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.library import build_library
from repro.service import ServiceClient, ThreadedService
from repro.workloads import random_tables

#: The acceptance workload: 2000 random 6-variable queries.
WORKLOAD_N = 6
QUERY_COUNT = 2_000
WORKLOAD_SEED = 42

#: Required throughput ratio of coalesced over request-at-a-time serving.
MIN_COALESCING_SPEEDUP = 5.0

COALESCED_BATCH = 256
COALESCED_WAIT_MS = 5.0


@pytest.fixture(scope="module")
def query_tables():
    return random_tables(WORKLOAD_N, QUERY_COUNT, WORKLOAD_SEED)


@pytest.fixture(scope="module")
def served_library(query_tables):
    """A library built from the query workload itself, so every query hits."""
    return build_library(query_tables)


def _batch_series() -> dict:
    """The process's batch-size histogram (cumulative buckets)."""
    return obs.registry().get("repro_service_batch_size").series()


def _batch_stats(before: dict, after: dict) -> dict:
    """``batches``/``mean_batch_size``/``max_batch_size`` of one run."""
    batches = after["count"] - before["count"]
    # The smallest bound whose cumulative count took every batch of the
    # run is the bound of the run's highest non-empty bucket.
    max_bound = next(
        bound
        for bound, count in after["buckets"].items()
        if count - before["buckets"][bound] == batches
    )
    return {
        "batches": batches,
        "mean_batch_size": round((after["sum"] - before["sum"]) / batches, 3),
        "max_batch_size": int(float(max_bound)),
    }


def _serve_and_measure(library, tables, max_batch, max_wait_ms):
    """One daemon run: pipeline every query, return (results, seconds, stats)."""
    with ThreadedService(
        library,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        max_pending=4 * len(tables),
        cache_size=0,  # isolate coalescing; no cache assists
    ) as svc:
        with ServiceClient(port=svc.port) as client:
            before = _batch_series()
            t0 = time.perf_counter()
            results = client.match_many(tables)
            seconds = time.perf_counter() - t0
            stats = _batch_stats(before, _batch_series())
    return results, seconds, stats


def _verify_offline(tables, results) -> None:
    """Every served witness must reproduce its query from the stored rep."""
    for query, result in zip(tables, results):
        assert result["hit"], f"{query!r} missed its own library"
        representative = TruthTable.from_hex(result["n"], result["representative"])
        transform = NPNTransform.from_dict(result["transform"])
        assert representative.apply(transform) == query, (
            f"witness for {query!r} does not re-verify offline"
        )


def test_coalescing_speedup_and_witness_verification(
    query_tables, served_library, results_dir, persist_bench
):
    """The acceptance run: >= 5x coalescing speedup, all witnesses verified."""
    coalesced_seconds = float("inf")
    for _ in range(2):
        coalesced_results, seconds, coalesced_stats = _serve_and_measure(
            served_library, query_tables, COALESCED_BATCH, COALESCED_WAIT_MS
        )
        coalesced_seconds = min(coalesced_seconds, seconds)
    serial_results, serial_seconds, serial_stats = _serve_and_measure(
        served_library, query_tables, max_batch=1, max_wait_ms=0
    )

    _verify_offline(query_tables, coalesced_results)
    _verify_offline(query_tables, serial_results)

    # The configurations really did what their names claim.
    assert serial_stats["batches"] == QUERY_COUNT
    assert serial_stats["max_batch_size"] == 1
    assert coalesced_stats["mean_batch_size"] > 8
    assert coalesced_stats["batches"] < QUERY_COUNT / 8

    speedup = serial_seconds / coalesced_seconds
    assert speedup >= MIN_COALESCING_SPEEDUP, (
        f"coalescing only bought {speedup:.2f}x "
        f"({serial_seconds:.2f}s serial vs {coalesced_seconds:.2f}s coalesced)"
    )

    rows = [
        {
            "serving": "request-at-a-time (max_batch=1)",
            "seconds": round(serial_seconds, 4),
            "queries_per_s": round(QUERY_COUNT / serial_seconds),
            "batches": serial_stats["batches"],
            "mean_batch": serial_stats["mean_batch_size"],
        },
        {
            "serving": f"coalesced (max_batch={COALESCED_BATCH})",
            "seconds": round(coalesced_seconds, 4),
            "queries_per_s": round(QUERY_COUNT / coalesced_seconds),
            "batches": coalesced_stats["batches"],
            "mean_batch": coalesced_stats["mean_batch_size"],
        },
    ]
    write_markdown_table(
        rows,
        results_dir / "service_throughput.md",
        title=(
            f"Service coalescing — {QUERY_COUNT} random {WORKLOAD_N}-var "
            f"queries, {speedup:.1f}x speedup, every witness re-verified"
        ),
    )
    persist_bench(
        "service",
        {
            "workload": {
                "n": WORKLOAD_N,
                "count": QUERY_COUNT,
                "seed": WORKLOAD_SEED,
            },
            "min_speedup_required": MIN_COALESCING_SPEEDUP,
            "speedup": round(speedup, 3),
            "coalesced": {
                "max_batch": COALESCED_BATCH,
                "max_wait_ms": COALESCED_WAIT_MS,
                "seconds": round(coalesced_seconds, 4),
                "batches": coalesced_stats["batches"],
                "mean_batch_size": coalesced_stats["mean_batch_size"],
            },
            "serial": {
                "seconds": round(serial_seconds, 4),
                "batches": serial_stats["batches"],
            },
            "witnesses_verified_offline": QUERY_COUNT,
        },
    )


def test_cache_turns_repeat_traffic_into_no_ops(served_library, query_tables):
    """With the LRU enabled, a repeated burst is answered without batches."""
    subset = query_tables[:500]
    with ThreadedService(
        served_library,
        max_batch=COALESCED_BATCH,
        max_wait_ms=COALESCED_WAIT_MS,
        cache_size=1 << 16,
    ) as svc:
        with ServiceClient(port=svc.port) as client:
            client.match_many(subset)
            after_first = client.stats()
            t0 = time.perf_counter()
            repeat = client.match_many(subset)
            warm_seconds = time.perf_counter() - t0
            after_second = client.stats()
    assert all(result["cached"] for result in repeat)
    assert after_second["batches"] == after_first["batches"]
    assert after_second["cache_hits"] >= len(subset)
    _verify_offline(subset, repeat)
    assert warm_seconds < 1.0


def test_pipelined_throughput_benchmark(
    benchmark, served_library, query_tables
):
    """pytest-benchmark timing of the coalesced configuration."""
    with ThreadedService(
        served_library,
        max_batch=COALESCED_BATCH,
        max_wait_ms=COALESCED_WAIT_MS,
        cache_size=0,
    ) as svc:
        with ServiceClient(port=svc.port) as client:
            result = benchmark.pedantic(
                client.match_many, (query_tables,), rounds=2, iterations=1
            )
    assert len(result) == QUERY_COUNT
