"""Tests for the learn-on-miss library (replay, mint, compact, recover).

Covers the :class:`LearningLibrary` lifecycle end to end — open with and
without an image, crash-recovery replay (including a torn final record),
minting with verified witnesses, the segment-size compaction trip —
plus the clean-miss pins: an empty library and a segment-only library
must answer unknown queries with an honest miss, never an error.
"""

import random

import pytest

from repro.baselines.exact_enum import exact_npn_canonical
from repro.core.truth_table import TruthTable
from repro.library import (
    ClassLibrary,
    LearningLibrary,
    LibraryFormatError,
    SegmentWriter,
    WalError,
    build_exhaustive_library,
    list_segments,
    replay_segment,
)
from repro.library.wal import segment_path


def make_learner(tmp_path, **kwargs) -> LearningLibrary:
    return LearningLibrary.open(tmp_path, create=True, **kwargs)


class TestCleanMiss:
    """Satellite pin: no knowledge means a miss, never an exception."""

    def test_empty_library_match_is_none(self):
        library = ClassLibrary()
        tt = TruthTable.majority(3)
        assert library.match(tt) is None
        assert library.match_many([tt, ~tt]) == [None, None]

    def test_empty_library_match_many_still_validates_signatures(self):
        with pytest.raises(ValueError):
            ClassLibrary().match_many([TruthTable.majority(3)], signatures=[])

    def test_fresh_segment_only_library_misses_unknown_queries(self, tmp_path):
        # Knowledge exists solely in an un-compacted WAL segment; a query
        # outside it must miss cleanly through the replayed state too.
        learner = make_learner(tmp_path)
        learner.learn(TruthTable.majority(3))
        learner.close_segment()

        reopened = make_learner(tmp_path)
        assert reopened.segments  # still segment-only: no image written
        unknown = TruthTable.from_hex(6, "deadbeefcafe4242")
        assert reopened.library.match(unknown) is None

    def test_open_without_create_requires_an_image(self, tmp_path):
        with pytest.raises(LibraryFormatError):
            LearningLibrary.open(tmp_path / "nowhere")


class TestLearn:
    def test_mint_returns_verified_match_and_logs_record(self, tmp_path):
        learner = make_learner(tmp_path)
        tt = TruthTable.random(5, random.Random(1))
        outcome = learner.learn(tt)
        assert outcome is not None
        assert outcome.verify(tt)
        assert learner.minted == 1
        assert learner.pending_records == 1
        assert learner.library.num_classes == 1

        learner.close_segment()
        (segment,) = learner.segments
        (record,) = replay_segment(segment).records
        assert record["class_id"] == outcome.class_id
        assert record["n"] == 5

    def test_minted_rep_is_orbit_minimum_at_small_n(self, tmp_path):
        learner = make_learner(tmp_path)
        tt = TruthTable.random(4, random.Random(2))
        outcome = learner.learn(tt)
        assert (
            outcome.representative
            == exact_npn_canonical(tt).representative
        )

    def test_identical_miss_resolves_against_minted_class(self, tmp_path):
        # The second identical miss in one batch races the mint; it must
        # resolve to the existing class without another record.
        learner = make_learner(tmp_path)
        tt = TruthTable.random(5, random.Random(3))
        first = learner.learn(tt)
        second = learner.learn(tt)
        assert second is not None
        assert second.class_id == first.class_id
        assert second.verify(tt)
        assert learner.minted == 1
        assert learner.pending_records == 1

    def test_npn_image_of_minted_class_is_resolved_not_reminted(
        self, tmp_path
    ):
        learner = make_learner(tmp_path)
        tt = TruthTable.random(5, random.Random(4))
        learner.learn(tt)
        image = ~tt.flip_inputs(0b10101)
        outcome = learner.learn(image)
        assert outcome is not None
        assert outcome.verify(image)
        assert learner.minted == 1


class TestReplayAndRecovery:
    def test_reopen_replays_minted_classes(self, tmp_path):
        learner = make_learner(tmp_path)
        rng = random.Random(6)
        queries = [TruthTable.random(5, rng) for _ in range(6)]
        for tt in queries:
            learner.learn(tt)
        minted = learner.minted
        learner.close_segment()  # crash before compaction

        recovered = make_learner(tmp_path)
        assert recovered.library.num_classes == minted
        assert recovered.pending_records == minted
        for tt in queries:
            outcome = recovered.library.match(tt)
            assert outcome is not None and outcome.verify(tt)

    def test_reopen_tolerates_torn_final_record(self, tmp_path):
        learner = make_learner(tmp_path)
        rng = random.Random(7)
        for _ in range(3):
            learner.learn(TruthTable.random(5, rng))
        learner.close_segment()
        (segment,) = learner.segments
        data = segment.read_bytes()
        segment.write_bytes(data[:-5])  # tear mid-way through record 3

        recovered = make_learner(tmp_path)
        assert recovered.library.num_classes == 2
        assert recovered.pending_records == 2

    def test_replay_rejects_tampered_class_id(self, tmp_path):
        learner = make_learner(tmp_path)
        learner.learn(TruthTable.random(5, random.Random(8)))
        learner.close_segment()
        (segment,) = learner.segments
        (record,) = replay_segment(segment).records
        record["class_id"] = "n5-0000000000000000"
        segment.unlink()
        with SegmentWriter(segment) as writer:
            writer.append(record)
        with pytest.raises(WalError, match="identity check"):
            make_learner(tmp_path)

    def test_replay_rejects_missing_fields(self, tmp_path):
        with SegmentWriter(segment_path(tmp_path, 0)) as writer:
            writer.append({"class_id": "n5-00", "n": 5})
        with pytest.raises(WalError, match="missing fields"):
            make_learner(tmp_path)

    def test_replay_canonicalizes_every_record_in_one_call(
        self, tmp_path, monkeypatch
    ):
        from repro.library import online, store

        learner = make_learner(tmp_path, segment_bytes=1 << 30)
        rng = random.Random(9)
        queries = [TruthTable.random(n, rng) for n in (2, 3, 4, 5, 6) * 3]
        for index, tt in enumerate(queries):
            learner.learn(tt)
            if index % 5 == 4:
                learner.close_segment()  # spread the records over segments
        learner.close_segment()
        records = sum(len(replay_segment(s).records) for s in learner.segments)
        assert len(learner.segments) == 3 and records == learner.minted
        learner.close()

        batches = []
        real = online.canonical_forms
        monkeypatch.setattr(
            online,
            "canonical_forms",
            lambda tables: batches.append(len(tables)) or real(tables),
        )
        monkeypatch.setattr(
            store,
            "canonical_form",
            lambda tt: pytest.fail("replay canonicalized one record alone"),
        )
        recovered = make_learner(tmp_path)
        assert batches == [records]
        assert recovered.pending_records == records
        for tt in queries:
            hit = recovered.library.match(tt)
            assert hit is not None and hit.verify(tt)
        recovered.close()

    def test_replay_on_top_of_saved_image(self, tmp_path):
        base = build_exhaustive_library(3)
        base.save(tmp_path)
        learner = LearningLibrary.open(tmp_path)
        tt = TruthTable.from_hex(6, "0123456789abcdef")
        assert learner.library.match(tt) is None
        learner.learn(tt)
        learner.close_segment()

        recovered = LearningLibrary.open(tmp_path)
        assert recovered.library.num_classes == base.num_classes + 1
        hit = recovered.library.match(tt)
        assert hit is not None and hit.verify(tt)


class TestCompaction:
    def test_compact_merges_and_removes_segments(self, tmp_path):
        learner = make_learner(tmp_path)
        rng = random.Random(9)
        for _ in range(4):
            learner.learn(TruthTable.random(5, rng))
        result = learner.compact()
        assert result.merged_records == learner.library.num_classes
        assert result.removed_segments == 1
        assert result.path == tmp_path
        assert learner.segments == []
        assert learner.pending_records == 0

        # The compacted image alone now answers the learned classes.
        reloaded = ClassLibrary.load(tmp_path)
        assert reloaded.num_classes == learner.library.num_classes

    def test_compact_without_pending_work_is_a_noop(self, tmp_path):
        learner = make_learner(tmp_path)
        result = learner.compact()
        assert result.path is None
        assert result.merged_records == 0
        assert learner.compactions == 0

    def test_segment_threshold_trips_automatic_compaction(self, tmp_path):
        learner = make_learner(tmp_path, segment_bytes=1)
        learner.learn(TruthTable.random(5, random.Random(10)))
        # One record crosses the 1-byte threshold: compacted immediately.
        assert learner.compactions == 1
        assert learner.segments == []
        assert learner.pending_records == 0
        assert ClassLibrary.load(tmp_path).num_classes == 1

    def test_stats_counters(self, tmp_path):
        learner = make_learner(tmp_path)
        learner.learn(TruthTable.random(5, random.Random(11)))
        stats = learner.stats()
        assert stats == {
            "classes_minted": 1,
            "wal_pending_records": 1,
            "wal_segments": 1,
            "compactions": 0,
        }

    def test_invalid_segment_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_learner(tmp_path, segment_bytes=0)


class TestCollidingBatchRegression:
    """Pinned regression: colliding misses inside one coalesced batch.

    ``learn`` used to trust digest equality when deduplicating misses, so
    the second of two digest-colliding, NPN-inequivalent misses in one
    batch fused into the first's class.  Ids are now canonical forms, so
    two orbits always mint two ids.
    """

    def test_canonical_pair_mints_distinct_pure_ids(self, tmp_path):
        from repro.canonical.form import canonical_class_id, canonical_form
        from repro.core.transforms import random_transform

        learner = make_learner(tmp_path)  # canonical default
        rng = random.Random(22)
        tt_a = TruthTable.random(5, rng)
        tt_b = TruthTable.random(5, rng)
        first = learner.learn(tt_a)
        second = learner.learn(tt_b)
        assert first.class_id != second.class_id
        # Ids are pure functions of the orbit — no overflow machinery.
        assert first.class_id == canonical_class_id(canonical_form(tt_a))
        assert second.class_id == canonical_class_id(canonical_form(tt_b))
        assert first.representative == canonical_form(tt_a)
        assert second.representative == canonical_form(tt_b)
        # A duplicate miss (same batch, different orbit member) resolves
        # to the existing class without a second mint.
        repeat = learner.learn(tt_a.apply(random_transform(5, rng)))
        assert repeat.class_id == first.class_id
        assert learner.minted == 2

    def test_canonical_mints_survive_replay(self, tmp_path):
        learner = make_learner(tmp_path)
        tt = TruthTable.random(6, random.Random(23))
        minted = learner.learn(tt)
        learner.close()
        reopened = make_learner(tmp_path)
        hit = reopened.library.match(tt)
        assert hit is not None and hit.class_id == minted.class_id
        assert hit.verify(tt)
        reopened.close()


class TestKernelWitnessLearnPath:
    """The canonical learn path at every arity: one call, no matcher.

    ``canonical_forms_with_transforms`` yields the form and the
    transform onto it (the kernel's up to n = 6, the scalar search's
    above); the learner answers with its inverse after one apply check.
    """

    @staticmethod
    def forbid_matcher(monkeypatch):
        def refuse(*args):
            raise AssertionError("learn() fell back to the matcher")

        for name in ("find_npn_transform", "find_npn_transforms_grouped"):
            monkeypatch.setattr(f"repro.baselines.matcher.{name}", refuse)

    def test_mint_and_resolve_never_call_the_matcher(
        self, tmp_path, monkeypatch
    ):
        from repro.core.transforms import random_transform

        self.forbid_matcher(monkeypatch)
        learner = make_learner(tmp_path)
        rng = random.Random(31)
        for n in range(7):
            queries = [TruthTable.random(n, rng) for _ in range(4)]
            queries.append(TruthTable(n, 0))
            for tt in queries:
                minted = learner.learn(tt)
                assert minted is not None and minted.verify(tt)
                assert (
                    minted.representative
                    == exact_npn_canonical(tt).representative
                )
                # Existing-id resolution: an NPN image hits the class
                # minted above, again with a kernel-derived witness.
                image = tt.apply(random_transform(n, rng))
                resolved = learner.learn(image)
                assert resolved.class_id == minted.class_id
                assert resolved.verify(image)
        assert learner.minted == learner.library.num_classes
        learner.close()

    def test_incremental_chains_match_a_rebuilt_index(
        self, tmp_path, monkeypatch
    ):
        from repro.core.msv import compute_msv

        learner = make_learner(tmp_path)
        library = learner.library
        rng = random.Random(32)
        learner.learn(TruthTable.majority(3))
        # An n = 6 query builds the chain index (smaller ones resolve by
        # canonical form and never consult it).
        library.match(TruthTable.random(6, random.Random(36)))
        assert library._chains is not None
        burst = [
            TruthTable.random(n, rng) for n in (3, 4, 5, 6) for _ in range(12)
        ]
        signatures = [compute_msv(tt, library.parts) for tt in burst]
        # The passed signatures index the mints: no recomputation.
        monkeypatch.setattr(
            "repro.library.store.compute_msv",
            lambda *args: pytest.fail("_chain_insert recomputed the MSV"),
        )
        for tt, signature in zip(burst, signatures):
            outcome = learner.learn(tt, signature)
            assert outcome is not None and outcome.verify(tt)
        monkeypatch.undo()
        incremental = {key: list(ids) for key, ids in library._chains.items()}
        library._chains = None
        assert library._chain_index() == incremental
        for tt in burst:
            hit = library.match(tt)
            assert hit is not None and hit.verify(tt)
        learner.close()

    def test_signature_of_another_arity_is_rejected(self, tmp_path):
        from repro.core.msv import compute_msv

        learner = make_learner(tmp_path)
        learner.learn(TruthTable.majority(3))
        learner.library.match(TruthTable.majority(3))
        wrong = compute_msv(TruthTable.majority(5), learner.library.parts)
        with pytest.raises(ValueError):
            learner.learn(TruthTable.random(4, random.Random(33)), wrong)
        # Rejected before any mutation: nothing stored, nothing logged.
        assert learner.library.num_classes == 1
        assert learner.minted == 1
        learner.close()

    def test_n7_miss_learns_through_the_scalar_path(
        self, tmp_path, monkeypatch
    ):
        from repro.canonical.form import influence_canonical_scalar

        self.forbid_matcher(monkeypatch)
        learner = make_learner(tmp_path)
        tt = TruthTable.random(7, random.Random(34))
        outcome = learner.learn(tt)
        assert outcome is not None and outcome.verify(tt)
        assert outcome.representative == influence_canonical_scalar(tt)
        assert learner.minted == 1
        learner.close()

    def test_a_witness_that_fails_its_apply_check_raises(
        self, tmp_path, monkeypatch
    ):
        from repro.core.transforms import NPNTransform
        from repro.library import online

        real = online.canonical_forms_with_transforms

        def wrong(tables):
            return [
                (form, NPNTransform(t.perm, t.input_phase, 1 - t.output_phase))
                for form, t in real(tables)
            ]

        monkeypatch.setattr(online, "canonical_forms_with_transforms", wrong)
        learner = make_learner(tmp_path)
        with pytest.raises(RuntimeError, match="canonicalizer bug"):
            learner.learn(TruthTable.majority(3))
        # Raised before any mutation: nothing stored, nothing logged.
        assert learner.library.num_classes == 0 and learner.minted == 0
        learner.close()

    def test_wal_replay_reproduces_the_same_ids(self, tmp_path):
        learner = make_learner(tmp_path)
        rng = random.Random(35)
        queries = [TruthTable.random(n, rng) for n in range(7) for _ in range(3)]
        ids = [learner.learn(tt).class_id for tt in queries]
        learner.close()

        reopened = make_learner(tmp_path)
        assert set(reopened.library.classes) == set(ids)
        for tt, class_id in zip(queries, ids):
            hit = reopened.library.match(tt)
            assert hit is not None and hit.class_id == class_id
            assert hit.verify(tt)
            assert reopened.learn(tt).class_id == class_id
        assert reopened.minted == 0
        reopened.close()
