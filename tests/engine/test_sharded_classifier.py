"""ShardedClassifier: determinism, robustness, streaming, shard merging.

The sharded engine's contract is that *nothing about the execution
strategy is observable*: worker count, shard size, chunk size, pool
completion order and streaming granularity must all produce buckets
byte-identical to ``BatchedClassifier`` — same keys, same first-seen
group order, same member order — with cache statistics to match.
"""

import os
import random
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.classifier import ClassificationResult
from repro.core.msv import DEFAULT_PARTS, compute_msv
from repro.engine import (
    BatchedClassifier,
    PackedTables,
    ShardedClassifier,
    merge_shard_keys,
)
from repro.engine.sharded import _classify_shard
from repro.workloads import (
    iter_random_tables,
    random_tables,
    seeded_equivalent_tables,
)


def digest(result: ClassificationResult) -> str:
    return result.buckets_digest()


class TestDeterminism:
    """Same buckets whatever the parallel execution shape."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_invisible(self, workers):
        tables, _ = seeded_equivalent_tables(5, 15, 4, seed=42)
        reference = BatchedClassifier().classify(tables)
        sharded = ShardedClassifier(workers=workers).classify(tables)
        assert digest(sharded) == digest(reference)

    @pytest.mark.parametrize("shard_size", [1, 3, 7, 64, 10_000])
    def test_odd_shard_sizes(self, shard_size):
        tables = random_tables(5, 50, seed=8)
        reference = BatchedClassifier().classify(tables)
        sharded = ShardedClassifier(workers=2, shard_size=shard_size)
        assert digest(sharded.classify(tables)) == digest(reference)

    @pytest.mark.parametrize("chunk_size", [1, 5, 4096])
    def test_odd_worker_chunk_sizes(self, chunk_size):
        tables = random_tables(4, 30, seed=9)
        reference = BatchedClassifier().classify(tables)
        sharded = ShardedClassifier(workers=2, shard_size=11, chunk_size=chunk_size)
        assert digest(sharded.classify(tables)) == digest(reference)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_streamed_mixed_arities_worker_count_invisible(self, workers):
        tables = random_tables(3, 20, seed=45) + random_tables(6, 20, seed=46)
        random.Random(47).shuffle(tables)
        reference = BatchedClassifier().classify(tables)
        sharded = ShardedClassifier(workers=workers, shard_size=6)
        streamed = sharded.classify_iter(iter(tables), stream_chunk=15)
        assert digest(streamed) == digest(reference)

    def test_repeat_runs_are_identical(self):
        tables = random_tables(6, 200, seed=10)
        classifier = ShardedClassifier(workers=2, shard_size=17)
        assert digest(classifier.classify(tables)) == digest(
            classifier.classify(tables)
        )


class TestRobustness:
    """Edge inputs: empty, single, duplicates, mixed arity, packed."""

    def test_empty_input(self):
        result = ShardedClassifier(workers=2).classify([])
        assert result.num_classes == 0
        assert result.num_functions == 0
        assert digest(result) == digest(BatchedClassifier().classify([]))

    def test_single_function(self):
        tt = random_tables(5, 1, seed=11)[0]
        result = ShardedClassifier(workers=4).classify([tt])
        assert result.num_classes == 1
        assert result.groups[compute_msv(tt)] == [tt]
        assert digest(result) == digest(BatchedClassifier().classify([tt]))

    def test_duplicate_tables(self):
        tt = random_tables(4, 1, seed=12)[0]
        tables = [tt] * 9 + random_tables(4, 6, seed=13) + [tt]
        reference = BatchedClassifier().classify(tables)
        classifier = ShardedClassifier(workers=2, shard_size=2)
        result = classifier.classify(tables)
        assert digest(result) == digest(reference)
        # duplicates resolve to one cache entry, computed once
        assert result.groups[compute_msv(tt)].count(tt) == 10

    def test_mixed_arity_input(self):
        tables = random_tables(3, 9, seed=14) + random_tables(6, 9, seed=15)
        random.Random(16).shuffle(tables)
        reference = BatchedClassifier().classify(tables)
        sharded = ShardedClassifier(workers=2, shard_size=4).classify(tables)
        assert digest(sharded) == digest(reference)

    def test_packed_input(self):
        packed = PackedTables.from_tables(random_tables(5, 40, seed=17))
        reference = BatchedClassifier().classify(packed)
        sharded = ShardedClassifier(workers=2, shard_size=13).classify(packed)
        assert digest(sharded) == digest(reference)

    def test_signature_matches_compute_msv(self):
        tt = random_tables(6, 1, seed=18)[0]
        assert ShardedClassifier(workers=2).signature(tt) == compute_msv(tt)

    def test_count_classes_accepts_generator(self):
        tables = random_tables(5, 60, seed=19)
        sharded = ShardedClassifier(workers=2, shard_size=10)
        assert sharded.count_classes(iter(tables)) == BatchedClassifier(
        ).count_classes(tables)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ShardedClassifier(workers=0)
        with pytest.raises(ValueError):
            ShardedClassifier(workers=-2)
        with pytest.raises(ValueError):
            ShardedClassifier(shard_size=0)
        with pytest.raises(ValueError):
            ShardedClassifier(workers=2).classify_iter([], stream_chunk=0)


class TestStreaming:
    """classify_iter: bounded chunks, any iterator, identical output."""

    @pytest.mark.parametrize("stream_chunk", [1, 37, 250, 100_000])
    def test_stream_chunking_invisible(self, stream_chunk):
        tables = random_tables(5, 250, seed=20)
        reference = BatchedClassifier().classify(tables)
        sharded = ShardedClassifier(workers=2, shard_size=31)
        streamed = sharded.classify_iter(iter(tables), stream_chunk)
        assert digest(streamed) == digest(reference)

    def test_consumes_lazy_generator(self):
        sharded = ShardedClassifier(workers=2, shard_size=64)
        streamed = sharded.classify_iter(
            iter_random_tables(6, 500, seed=21), stream_chunk=128
        )
        reference = BatchedClassifier().classify(random_tables(6, 500, 21))
        assert digest(streamed) == digest(reference)

    def test_empty_stream(self):
        result = ShardedClassifier(workers=2).classify_iter(iter(()))
        assert result.num_functions == 0

    def test_cache_warm_across_chunks(self):
        tables = random_tables(4, 40, seed=22)
        sharded = ShardedClassifier(workers=2, shard_size=8)
        sharded.classify_iter(iter(tables + tables), stream_chunk=40)
        # second pass over the same 40 tables is pure cache hits
        assert sharded.cache_stats.hits == 40


class TestCacheStats:
    """SignatureCache behaviour is identical to the single-process driver."""

    def test_stats_match_batched_driver(self):
        tables = random_tables(4, 50, seed=23) + random_tables(4, 10, seed=23)
        batched = BatchedClassifier()
        sharded = ShardedClassifier(workers=2, shard_size=7)
        for _ in range(2):
            batched.classify(tables)
            sharded.classify(tables)
            assert sharded.cache_stats == batched.cache_stats

    def test_second_run_hits_every_row(self):
        tables = random_tables(5, 30, seed=24)
        sharded = ShardedClassifier(workers=2, shard_size=4)
        sharded.classify(tables)
        assert sharded.cache_stats.hits == 0
        sharded.classify(tables)
        assert sharded.cache_stats.hits == len(tables)
        assert sharded.cache_stats.evictions == 0

    def test_disabled_cache_still_classifies(self):
        tables = random_tables(4, 20, seed=25)
        sharded = ShardedClassifier(workers=2, shard_size=6, cache_size=0)
        reference = BatchedClassifier().classify(tables)
        assert digest(sharded.classify(tables)) == digest(reference)
        assert sharded.cache_stats.hits == 0

    def test_eviction_accounting(self):
        tables = random_tables(5, 40, seed=26)
        sharded = ShardedClassifier(workers=2, shard_size=9, cache_size=8)
        sharded.classify(tables)
        assert sharded.cache_stats.evictions > 0
        assert len(sharded.cache) <= 8


class TestShardMerge:
    """The deterministic merge layer rejects partial or corrupt coverage."""

    def test_out_of_order_shards_restore_input_order(self):
        shards = [[(2, "c"), (3, "d")], [(0, "a"), (1, "b")]]
        assert merge_shard_keys(shards, 4) == ["a", "b", "c", "d"]

    def test_rejects_duplicate_index(self):
        with pytest.raises(ValueError, match="twice"):
            merge_shard_keys([[(0, "a")], [(0, "b")]], 2)

    def test_rejects_missing_index(self):
        with pytest.raises(ValueError, match="covered 1 of 2"):
            merge_shard_keys([[(0, "a")]], 2)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="outside"):
            merge_shard_keys([[(5, "a")]], 2)

    def test_worker_body_runs_inline(self):
        """The exact function shipped to workers is testable in-process."""
        tables = random_tables(4, 6, seed=27)
        nbytes = PackedTables.from_tables(tables).words.shape[1] * 8
        buffer = b"".join(tt.bits.to_bytes(nbytes, "little") for tt in tables)
        pairs = _classify_shard((10, 4, DEFAULT_PARTS, None, buffer))
        assert [index for index, _ in pairs] == list(range(10, 16))
        for (_, key), tt in zip(pairs, tables):
            assert key == compute_msv(tt).key


def _kill_self(task):  # pragma: no cover - runs (and dies) in a worker
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashRecovery:
    def test_killed_worker_raises_then_classifier_recovers(self, monkeypatch):
        """A SIGKILL'd worker surfaces as BrokenProcessPool, not a hang,
        and the next call on the same classifier gets a fresh pool."""
        tables = random_tables(5, 40, seed=52)
        classifier = ShardedClassifier(
            workers=2, shard_size=5, start_method="fork"
        )
        with monkeypatch.context() as patch:
            patch.setattr("repro.engine.sharded._classify_shard", _kill_self)
            with pytest.raises(BrokenProcessPool):
                classifier.classify(tables)
        reference = BatchedClassifier().classify(tables)
        assert digest(classifier.classify(tables)) == digest(reference)


class TestOpenPool:
    """Held pools are reused across calls and safe to nest."""

    def test_calls_inside_scope_reuse_one_pool(self):
        tables = random_tables(4, 30, seed=29)
        reference = BatchedClassifier().classify(tables)
        classifier = ShardedClassifier(workers=2, shard_size=5)
        with classifier.open_pool():
            first = classifier.classify(tables[:15])
            pool = classifier._held_pool._pool  # forked by the first call
            second = classifier.classify(tables[15:])
            assert classifier._held_pool._pool is pool
        assert classifier._held_pool is None  # scope tears the pool down
        assert digest(first.merged_with(second)) == digest(reference)

    def test_nested_scopes_are_reentrant(self):
        tables = random_tables(4, 12, seed=30)
        classifier = ShardedClassifier(workers=2, shard_size=3)
        with classifier.open_pool():
            outer = classifier._held_pool
            with classifier.open_pool():
                assert classifier._held_pool is outer
                classifier.classify(tables)
            assert classifier._held_pool is outer

    def test_workers_one_never_forks(self):
        classifier = ShardedClassifier(workers=1)
        with classifier.open_pool():
            classifier.classify(random_tables(4, 8, seed=31))
            assert classifier._held_pool is None


class TestStartMethods:
    """The wire format is start-method agnostic (buffers, not objects)."""

    @pytest.mark.slow
    def test_spawn_start_method(self):
        tables = random_tables(3, 20, seed=28) + random_tables(6, 20, seed=29)
        random.Random(50).shuffle(tables)
        reference = digest(BatchedClassifier().classify(tables))
        # No cache, so the streamed pass ships every row to the workers too.
        sharded = ShardedClassifier(
            workers=2, shard_size=6, cache_size=0, start_method="spawn"
        )
        with sharded.open_pool():
            assert digest(sharded.classify(tables)) == reference
            streamed = sharded.classify_iter(iter(tables), stream_chunk=15)
            assert digest(streamed) == reference
