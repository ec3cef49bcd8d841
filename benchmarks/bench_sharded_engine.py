"""Bench: sharded multi-process engine — parity first, scaling second.

The acceptance contract of the sharded engine: on 10k random 6-variable
functions, :class:`repro.engine.ShardedClassifier` must produce buckets
*byte-identical* to :class:`BatchedClassifier` for workers ∈ {1, 2, 4}
— the parity assertions run on every invocation and in CI.

Scaling is asserted, not just reported, *when the box can express it*:
with ≥ 4 schedulable cores, workers=4 must beat workers=1 wall-clock.
Schedulable means ``len(os.sched_getaffinity(0))`` — a 16-core machine
whose CI container is pinned to one core has effective parallelism 1,
and ``os.cpu_count()`` would lie about that.  On narrower boxes the
contract is recorded as skipped in the results artifact, and every row
carries its effective parallelism and an ``oversubscribed`` flag so a
reader can tell a real regression from a starved runner.  The batched
reference row is timed too, so the artifact shows whether sharding beats
one process at all.

Also measures the streaming entry point and shard-size insensitivity.
"""

import os
import time

import pytest

from functools import reduce

from repro.analysis.tables import write_markdown_table
from repro.engine import BatchedClassifier, ShardedClassifier
from repro.workloads import iter_random_tables, packed_shards, random_tables

#: The acceptance workload: 10k random 6-variable functions.
WORKLOAD_N = 6
WORKLOAD_COUNT = 10_000
WORKLOAD_SEED = 42

#: Worker counts whose buckets must be byte-identical to the batched engine.
PARITY_WORKERS = (1, 2, 4)

#: Minimum schedulable cores for the workers=4-beats-workers=1 assertion.
SCALING_MIN_CORES = 4


def schedulable_cores() -> int:
    """Cores this process may actually run on — the honest parallelism cap.

    ``os.cpu_count()`` reports the machine; cgroup/affinity-pinned CI
    containers can schedule on far fewer.  Falls back to ``cpu_count``
    on platforms without ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS/Windows fallback
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def acceptance_tables():
    return random_tables(WORKLOAD_N, WORKLOAD_COUNT, WORKLOAD_SEED)


@pytest.fixture(scope="module")
def reference_result(acceptance_tables):
    return BatchedClassifier().classify(acceptance_tables)


def test_bucket_parity_and_scaling(
    acceptance_tables, reference_result, results_dir, persist_bench
):
    """The acceptance run: parity at every worker count + the gated
    scaling contract."""
    reference_digest = reference_result.buckets_digest()
    affinity = schedulable_cores()
    rows = []
    seconds = {}  # workers -> wall-clock
    for workers in PARITY_WORKERS:
        classifier = ShardedClassifier(workers=workers)
        with classifier.open_pool():  # warm pool: time dispatch, not fork
            t0 = time.perf_counter()
            result = classifier.classify(acceptance_tables)
            elapsed = time.perf_counter() - t0
        assert result.buckets_digest() == reference_digest, (
            f"workers={workers} diverged from the batched engine"
        )
        seconds[workers] = elapsed
        rows.append(
            {
                "engine": f"sharded workers={workers}",
                "seconds": round(elapsed, 4),
                "functions_per_s": round(WORKLOAD_COUNT / elapsed),
                "effective_parallelism": min(workers, affinity),
                "oversubscribed": workers > affinity,
                "classes": result.num_classes,
                "buckets": result.buckets_digest()[:12],
            }
        )
    t0 = time.perf_counter()
    batched = BatchedClassifier().classify(acceptance_tables)
    batched_seconds = time.perf_counter() - t0
    assert batched.buckets_digest() == reference_digest
    rows.append(
        {
            "engine": "batched (single-process reference)",
            "seconds": round(batched_seconds, 4),
            "functions_per_s": round(WORKLOAD_COUNT / batched_seconds),
            "effective_parallelism": 1,
            "oversubscribed": False,
            "classes": batched.num_classes,
            "buckets": reference_digest[:12],
        }
    )

    # The scale-out contract: only meaningful when the box can actually
    # run 4 workers at once.  A pinned 1-core container exercising it
    # would "fail" on scheduler round-robin, not on engine behavior.
    single = seconds[1]
    multi = seconds[4]
    scaling_asserted = affinity >= SCALING_MIN_CORES
    if scaling_asserted:
        assert multi < single, (
            f"scale-out regression: workers=4 ({multi:.2f}s) did not beat "
            f"workers=1 ({single:.2f}s) with {affinity} schedulable cores"
        )

    write_markdown_table(
        rows,
        results_dir / "sharded_engine.md",
        title=(
            f"Sharded engine parity + scaling "
            f"({WORKLOAD_COUNT} random {WORKLOAD_N}-var functions, "
            f"{affinity} schedulable cores; workers=1 {single:.2f}s "
            f"vs workers=4 {multi:.2f}s vs batched {batched_seconds:.2f}s; "
            f"scaling contract "
            f"{'asserted' if scaling_asserted else 'skipped: too few cores'})"
        ),
    )
    persist_bench(
        "sharded_engine",
        {
            "workload": {
                "n": WORKLOAD_N,
                "count": WORKLOAD_COUNT,
                "seed": WORKLOAD_SEED,
            },
            "cpus": os.cpu_count(),
            "schedulable_cores": affinity,
            "parity_workers": list(PARITY_WORKERS),
            "scaling_contract": {
                "min_cores": SCALING_MIN_CORES,
                "asserted": scaling_asserted,
                "holds": multi < single if scaling_asserted else None,
            },
            "seconds_by_workers": {
                f"w{workers}": round(elapsed, 4)
                for workers, elapsed in seconds.items()
            },
            "batched_seconds": round(batched_seconds, 4),
            "sharded_beats_batched": min(seconds.values()) < batched_seconds,
            "rows": rows,
        },
    )


def test_streaming_matches_one_shot(reference_result):
    """classify_iter over a lazy generator reproduces the one-shot buckets."""
    classifier = ShardedClassifier(workers=2, shard_size=512)
    streamed = classifier.classify_iter(
        iter_random_tables(WORKLOAD_N, WORKLOAD_COUNT, WORKLOAD_SEED),
        stream_chunk=1024,
    )
    assert streamed.buckets_digest() == reference_result.buckets_digest()


def test_shard_size_insensitive(acceptance_tables, reference_result):
    """Pathological shard sizes cannot change the output, only the speed."""
    subset = acceptance_tables[:1_000]
    reference = BatchedClassifier().classify(subset)
    for shard_size in (1, 97, 100_000):
        result = ShardedClassifier(workers=2, shard_size=shard_size).classify(
            subset
        )
        assert result.buckets_digest() == reference.buckets_digest()


def test_manual_shard_merge_matches_one_shot(reference_result):
    """Classifying packed shards separately and merging reproduces buckets.

    The workload-side sharding path: ``packed_shards`` feeds shard-sized
    batches to independent classify calls whose results are folded with
    ``merged_with`` — the DIY equivalent of what ``ShardedClassifier``
    automates, and it must land on the same digest.
    """
    stream = iter_random_tables(WORKLOAD_N, WORKLOAD_COUNT, WORKLOAD_SEED)
    classifier = BatchedClassifier()
    partials = [classifier.classify(shard) for shard in packed_shards(stream, 1024)]
    merged = reduce(lambda left, right: left.merged_with(right), partials)
    assert merged.buckets_digest() == reference_result.buckets_digest()


def test_sharded_classify_benchmark(benchmark, acceptance_tables):
    """pytest-benchmark timing of the default-configuration sharded run."""
    def run():
        return ShardedClassifier().classify(acceptance_tables)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.num_functions == WORKLOAD_COUNT
