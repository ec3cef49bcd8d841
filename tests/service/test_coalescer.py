"""Coalescer behaviour: batch/timeout boundaries, backpressure, drain.

Tests drive the coalescer directly on a private event loop via
``asyncio.run`` — no sockets, so batch-size assertions are deterministic
where the design makes them so (single-waiter boundaries, stalled-worker
backpressure, drain ordering).
"""

import asyncio

import pytest

from repro import obs
from repro.core.classifier import FacePointClassifier
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier
from repro.service.coalescer import Coalescer
from repro.service.protocol import ProtocolError
from tests.msv_rows import flat_key


def tables(count, n=3, start=1):
    limit = 1 << (1 << n)
    return [TruthTable(n, (start + i) % limit) for i in range(count)]


class TestConstruction:
    def test_rejects_bad_knobs(self, tiny_library):
        with pytest.raises(ValueError):
            Coalescer(tiny_library, max_batch=0)
        with pytest.raises(ValueError):
            Coalescer(tiny_library, max_wait_ms=-1)
        with pytest.raises(ValueError):
            Coalescer(tiny_library, max_pending=0)


class TestBatching:
    def test_burst_coalesces_into_one_batch(self, tiny_library, batch_sizes):
        async def scenario():
            coalescer = Coalescer(
                tiny_library, max_batch=64, max_wait_ms=50.0
            )
            coalescer.start()
            futures = [coalescer.submit("match", tt) for tt in tables(16)]
            results = await asyncio.gather(*futures)
            await coalescer.stop()
            return coalescer, results

        coalescer, results = asyncio.run(scenario())
        # All 16 were queued before the worker could run: one batch.
        assert batch_sizes() == {"16": 1}
        assert len(results) == 16

    def test_max_batch_splits_bursts(self, tiny_library, batch_sizes):
        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=4, max_wait_ms=50.0)
            coalescer.start()
            futures = [coalescer.submit("match", tt) for tt in tables(10)]
            await asyncio.gather(*futures)
            await coalescer.stop()
            return coalescer

        asyncio.run(scenario())
        assert batch_sizes() == {"4": 2, "2": 1}  # 4 + 4 + 2

    def test_max_batch_one_disables_coalescing(
        self, tiny_library, batch_sizes
    ):
        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=1, max_wait_ms=50.0)
            coalescer.start()
            futures = [coalescer.submit("match", tt) for tt in tables(5)]
            await asyncio.gather(*futures)
            await coalescer.stop()
            return coalescer

        asyncio.run(scenario())
        assert batch_sizes() == {"1": 5}

    def test_lone_request_released_by_timeout(self, tiny_library, batch_sizes):
        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=1024, max_wait_ms=5.0)
            coalescer.start()
            # One request, nothing else coming: the max_wait deadline —
            # not a full batch — must release it.
            result = await asyncio.wait_for(
                coalescer.submit("match", TruthTable(3, 0xE8)), timeout=5.0
            )
            await coalescer.stop()
            return coalescer, result

        coalescer, (outcome, cached) = asyncio.run(scenario())
        assert batch_sizes() == {"1": 1}
        assert not cached
        assert outcome is not None

    def test_zero_wait_still_drains_backlog_greedily(
        self, tiny_library, batch_sizes
    ):
        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=64, max_wait_ms=0)
            futures = [coalescer.submit("match", tt) for tt in tables(8)]
            coalescer.start()  # everything queued before the worker wakes
            await asyncio.gather(*futures)
            await coalescer.stop()
            return coalescer

        asyncio.run(scenario())
        assert batch_sizes() == {"8": 1}


class TestResults:
    def test_match_results_agree_with_offline_library(self, tiny_library):
        queries = tables(20)

        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=8, max_wait_ms=5.0)
            coalescer.start()
            futures = [coalescer.submit("match", tt) for tt in queries]
            results = await asyncio.gather(*futures)
            await coalescer.stop()
            return results

        results = asyncio.run(scenario())
        for query, (outcome, cached) in zip(queries, results):
            offline = tiny_library.match(query)
            assert not cached
            assert (outcome is None) == (offline is None)
            if outcome is not None:
                assert outcome.class_id == offline.class_id
                assert outcome.verify(query)

    def test_classify_results_and_mixed_ops(self, tiny_library):
        queries = tables(6)

        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=16, max_wait_ms=5.0)
            coalescer.start()
            classify = [coalescer.submit("classify", tt) for tt in queries]
            match = [coalescer.submit("match", tt) for tt in queries]
            classified = await asyncio.gather(*classify)
            matched = await asyncio.gather(*match)
            await coalescer.stop()
            return classified, matched

        classified, matched = asyncio.run(scenario())
        for query, (class_id, known) in zip(queries, classified):
            offline = tiny_library.lookup(query)
            assert known == (offline is not None)
            if offline is not None:
                assert class_id == offline.class_id
        for (outcome, _), (class_id, known) in zip(matched, classified):
            if known:
                assert outcome is not None and outcome.class_id == class_id

    @pytest.mark.parametrize("ops", [("classify",) * 6, ("classify", "match") * 3])
    def test_signatures_only_for_match_rows(
        self, tiny_library, batch_sizes, ops, monkeypatch
    ):
        # classify resolves by canonical form: only match rows reach the
        # library's one match_many call, which signs what it needs itself.
        signed = []
        match_many = tiny_library.match_many

        def spy(tables, learn=None):
            signed.append(len(tables))
            return match_many(tables, learn=learn)

        monkeypatch.setattr(tiny_library, "match_many", spy)

        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=16, max_wait_ms=20.0)
            coalescer.start()
            futures = [
                coalescer.submit(op, tt) for op, tt in zip(ops, tables(len(ops)))
            ]
            await asyncio.gather(*futures)
            await coalescer.stop()

        asyncio.run(scenario())
        assert sum(batch_sizes().values()) == 1  # one batch for every op
        assert signed == [ops.count("match")]

    def test_a_learning_batch_signs_only_its_n6_match_rows(
        self, tmp_path, monkeypatch
    ):
        from repro.library import LearningLibrary

        learner = LearningLibrary.open(tmp_path, create=True)
        signed = []
        signatures = BatchedClassifier.signatures
        monkeypatch.setattr(
            BatchedClassifier,
            "signatures",
            lambda self, rows: signed.append(len(rows)) or signatures(self, rows),
        )

        def recompute(*args):
            # An Exception, so the coalescer fails the batch instead of
            # its worker task dying with the futures unresolved.
            raise AssertionError("a mint recomputed its signature")

        monkeypatch.setattr("repro.library.store.signature_keys", recompute)
        queries = tables(2, n=4, start=7) + tables(2, n=6, start=7)

        async def scenario():
            coalescer = Coalescer(
                learner.library, max_batch=16, max_wait_ms=0, learner=learner
            )
            futures = [coalescer.submit("match", tt) for tt in queries]
            futures.append(coalescer.submit("classify", queries[-1]))
            coalescer.start()  # everything is queued: one batch
            results = await asyncio.gather(*futures)
            await coalescer.stop()
            return results

        results = asyncio.run(scenario())
        assert signed == [2]  # the n = 6 rows, once; learning signs nothing
        for query, (outcome, _) in zip(queries, results):
            assert outcome.verify(query)
        assert learner.minted == 4

    def test_answers_match_the_per_function_reference(self, tiny_library):
        # The library signs batches with BatchedClassifier; its signatures
        # and the daemon's answers must be the per-function reference's.
        queries = tables(6)

        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=8, max_wait_ms=5.0)
            coalescer.start()
            futures = [coalescer.submit("match", tt) for tt in queries]
            results = await asyncio.gather(*futures)
            await coalescer.stop()
            return results

        results = asyncio.run(scenario())
        reference = FacePointClassifier(tiny_library.parts)
        assert BatchedClassifier(tiny_library.parts).signatures(queries) == [
            flat_key(reference.signature(tt)) for tt in queries
        ]
        for query, (outcome, _) in zip(queries, results):
            offline = tiny_library.match(query)
            assert outcome is not None and offline is not None
            assert outcome.class_id == offline.class_id
            assert outcome.verify(query)

    def test_mixed_arities_share_a_batch(self, tiny_library, batch_sizes):
        queries = tables(4, n=2) + tables(4, n=3)

        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=16, max_wait_ms=20.0)
            coalescer.start()
            futures = [coalescer.submit("match", tt) for tt in queries]
            results = await asyncio.gather(*futures)
            await coalescer.stop()
            return coalescer, results

        coalescer, results = asyncio.run(scenario())
        assert batch_sizes() == {"8": 1}
        for query, (outcome, _) in zip(queries, results):
            assert outcome is not None
            assert outcome.entry.n == query.n
            assert outcome.verify(query)


class TestCacheIntegration:
    def test_second_burst_hits_cache_without_batches(
        self, tiny_library, batch_sizes
    ):
        queries = tables(10)
        lookups = obs.registry().get("repro_cache_match_lookups_total")
        hits, misses = lookups.value(result="hit"), lookups.value(result="miss")

        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=64, max_wait_ms=5.0)
            coalescer.start()
            first = await asyncio.gather(
                *[coalescer.submit("match", tt) for tt in queries]
            )
            batches_after_first = batch_sizes()
            second = await asyncio.gather(
                *[coalescer.submit("match", tt) for tt in queries]
            )
            await coalescer.stop()
            return batches_after_first, first, second

        batches_after_first, first, second = asyncio.run(scenario())
        assert batch_sizes() == batches_after_first  # no new work
        assert all(not cached for _, cached in first)
        assert all(cached for _, cached in second)
        assert [o.class_id for o, _ in first] == [o.class_id for o, _ in second]
        assert lookups.value(result="hit") == hits + 10
        assert lookups.value(result="miss") == misses + 10

    def test_cache_disabled_by_zero_size(self, tiny_library, batch_sizes):
        async def scenario():
            coalescer = Coalescer(
                tiny_library, max_batch=64, max_wait_ms=5.0, cache_size=0
            )
            coalescer.start()
            query = TruthTable(3, 0xE8)
            await coalescer.submit("match", query)
            _, cached = await coalescer.submit("match", query)
            await coalescer.stop()
            return coalescer, cached

        coalescer, cached = asyncio.run(scenario())
        assert not cached
        assert batch_sizes() == {"1": 2}


class TestBackpressure:
    def test_overloaded_when_queue_full(self, tiny_library):
        async def scenario():
            # Worker never started: the queue can only fill up.
            coalescer = Coalescer(
                tiny_library, max_pending=3, max_wait_ms=0
            )
            for tt in tables(3):
                coalescer.submit("match", tt)
            with pytest.raises(ProtocolError) as excinfo:
                coalescer.submit("match", TruthTable(3, 0x99))
            return excinfo.value

        error = asyncio.run(scenario())
        assert error.error_type == "overloaded"
        assert "full" in error.message

    def test_overloaded_queue_recovers_after_drain(self, tiny_library):
        async def scenario():
            coalescer = Coalescer(tiny_library, max_pending=3, max_wait_ms=0)
            pending = [coalescer.submit("match", tt) for tt in tables(3)]
            with pytest.raises(ProtocolError):
                coalescer.submit("match", TruthTable(3, 0x99))
            coalescer.start()  # worker drains the backlog
            await asyncio.gather(*pending)
            extra = await coalescer.submit("match", TruthTable(3, 0x99))
            await coalescer.stop()
            return extra

        outcome, _ = asyncio.run(scenario())
        assert outcome is not None


class TestDrain:
    def test_stop_answers_backlog_then_rejects(self, tiny_library):
        async def scenario():
            coalescer = Coalescer(tiny_library, max_batch=4, max_wait_ms=0)
            futures = [coalescer.submit("match", tt) for tt in tables(9)]
            coalescer.start()
            stop_task = asyncio.ensure_future(coalescer.stop())
            await asyncio.sleep(0)  # let stop() mark the coalescer closed
            with pytest.raises(ProtocolError) as excinfo:
                coalescer.submit("match", TruthTable(3, 0x99))
            results = await asyncio.gather(*futures)
            await stop_task
            return excinfo.value, results

        error, results = asyncio.run(scenario())
        assert error.error_type == "shutting_down"
        assert len(results) == 9
        assert all(outcome is not None for outcome, _ in results)

    def test_stop_is_idempotent(self, tiny_library):
        async def scenario():
            coalescer = Coalescer(tiny_library)
            coalescer.start()
            await coalescer.stop()
            await coalescer.stop()

        asyncio.run(scenario())

    def test_stop_survives_compaction_failure(self, tiny_library, caplog):
        # Regression: a drain-time WAL compaction failure (full disk,
        # corrupt segment) used to propagate out of stop(), aborting the
        # server's teardown with the already-answered backlog replies
        # still unsent.  It must be logged and swallowed, the learner
        # still closed, and the backlog fully answered.
        class ExplodingLearner:
            def __init__(self, library):
                self.library = library
                self.closed = False

            def learn(self, tables, forms, signatures):
                raise AssertionError("every query of the backlog hits")

            def compact(self):
                raise OSError("no space left on device")

            def close(self):
                self.closed = True

        learner = ExplodingLearner(tiny_library)

        async def scenario():
            coalescer = Coalescer(
                tiny_library, max_batch=4, max_wait_ms=0, learner=learner
            )
            futures = [coalescer.submit("match", tt) for tt in tables(9)]
            coalescer.start()
            await coalescer.stop()  # must NOT raise
            return await asyncio.gather(*futures)

        with caplog.at_level("ERROR", logger="repro.service.coalescer"):
            results = asyncio.run(scenario())
        assert len(results) == 9
        assert all(outcome is not None for outcome, _ in results)
        assert learner.closed, "close() must run even when compact() fails"
        assert any(
            "compaction failed" in record.message for record in caplog.records
        )
