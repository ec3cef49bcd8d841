"""Tests for the learn-on-miss library (replay, mint, compact, recover).

Covers the :class:`LearningLibrary` lifecycle end to end — open with and
without an image, crash-recovery replay (including a torn final record),
minting with verified witnesses, the segment-size compaction trip —
plus the clean-miss pins: an empty library and a segment-only library
must answer unknown queries with an honest miss, never an error.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tests.strategies import npn_orbits


def make_learner(tmp_path, **kwargs) -> LearningLibrary:
    return LearningLibrary.open(tmp_path, create=True, **kwargs)


class TestCleanMiss:
    """Satellite pin: no knowledge means a miss, never an exception."""

    def test_empty_library_match_is_none(self):
        library = ClassLibrary()
        tt = TruthTable.majority(3)
        assert library.match(tt) is None
        assert library.match_many([tt, ~tt]) == [None, None]

    def test_fresh_segment_only_library_misses_unknown_queries(self, tmp_path):
        # Knowledge exists solely in an un-compacted WAL segment; a query
        # outside it must miss cleanly through the replayed state too.
        learner = make_learner(tmp_path)
        learner.learn([TruthTable.majority(3)])
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
        outcome = learner.learn([tt])[0]
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
        outcome = learner.learn([tt])[0]
        assert (
            outcome.representative
            == exact_npn_canonical(tt).representative
        )

    def test_identical_miss_resolves_against_minted_class(self, tmp_path):
        # The second identical miss in one batch races the mint; it must
        # resolve to the existing class without another record.
        learner = make_learner(tmp_path)
        tt = TruthTable.random(5, random.Random(3))
        first = learner.learn([tt])[0]
        second = learner.learn([tt])[0]
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
        learner.learn([tt])
        image = ~tt.flip_inputs(0b10101)
        outcome = learner.learn([image])[0]
        assert outcome is not None
        assert outcome.verify(image)
        assert learner.minted == 1


class TestReplayAndRecovery:
    def test_reopen_replays_minted_classes(self, tmp_path):
        learner = make_learner(tmp_path)
        rng = random.Random(6)
        queries = [TruthTable.random(5, rng) for _ in range(6)]
        for tt in queries:
            learner.learn([tt])
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
            learner.learn([TruthTable.random(5, rng)])
        learner.close_segment()
        (segment,) = learner.segments
        data = segment.read_bytes()
        segment.write_bytes(data[:-5])  # tear mid-way through record 3

        recovered = make_learner(tmp_path)
        assert recovered.library.num_classes == 2
        assert recovered.pending_records == 2

    def test_replay_rejects_tampered_class_id(self, tmp_path):
        learner = make_learner(tmp_path)
        learner.learn([TruthTable.random(5, random.Random(8))])
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
            learner.learn([tt])
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
        learner.learn([tt])
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
            learner.learn([TruthTable.random(5, rng)])
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
        learner.learn([TruthTable.random(5, random.Random(10))])
        # One record crosses the 1-byte threshold: compacted immediately.
        assert learner.compactions == 1
        assert learner.segments == []
        assert learner.pending_records == 0
        assert ClassLibrary.load(tmp_path).num_classes == 1

    def test_stats_counters(self, tmp_path):
        learner = make_learner(tmp_path)
        learner.learn([TruthTable.random(5, random.Random(11))])
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
        first = learner.learn([tt_a])[0]
        second = learner.learn([tt_b])[0]
        assert first.class_id != second.class_id
        # Ids are pure functions of the orbit — no overflow machinery.
        assert first.class_id == canonical_class_id(canonical_form(tt_a))
        assert second.class_id == canonical_class_id(canonical_form(tt_b))
        assert first.representative == canonical_form(tt_a)
        assert second.representative == canonical_form(tt_b)
        # A duplicate miss (same batch, different orbit member) resolves
        # to the existing class without a second mint.
        repeat = learner.learn([tt_a.apply(random_transform(5, rng))])[0]
        assert repeat.class_id == first.class_id
        assert learner.minted == 2

    def test_canonical_mints_survive_replay(self, tmp_path):
        learner = make_learner(tmp_path)
        tt = TruthTable.random(6, random.Random(23))
        minted = learner.learn([tt])[0]
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
                minted = learner.learn([tt])[0]
                assert minted is not None and minted.verify(tt)
                assert (
                    minted.representative
                    == exact_npn_canonical(tt).representative
                )
                # Existing-id resolution: an NPN image hits the class
                # minted above, again with a kernel-derived witness.
                image = tt.apply(random_transform(n, rng))
                resolved = learner.learn([image])[0]
                assert resolved.class_id == minted.class_id
                assert resolved.verify(image)
        assert learner.minted == learner.library.num_classes
        learner.close()

    def test_incremental_chains_match_a_rebuilt_index(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import BatchedClassifier

        learner = make_learner(tmp_path)
        library = learner.library
        rng = random.Random(32)
        learner.learn([TruthTable.majority(3)])
        # An n = 6 query builds the chain index (smaller ones resolve by
        # canonical form and never consult it).
        library.match(TruthTable.random(6, random.Random(36)))
        assert library._chains is not None
        burst = [
            TruthTable.random(n, rng) for n in (3, 4, 5, 6) for _ in range(12)
        ]
        signatures = BatchedClassifier(library.parts).signatures(burst)
        # The passed signatures index the mints: no recomputation.
        monkeypatch.setattr(
            "repro.library.store.signature_keys",
            lambda *args: pytest.fail("_chain_insert recomputed the MSV"),
        )
        for tt, signature in zip(burst, signatures):
            (outcome,) = learner.learn([tt], signatures=[signature])
            assert outcome.verify(tt)
        monkeypatch.undo()
        incremental = {key: list(ids) for key, ids in library._chains.items()}
        # Each n = 6 mint is indexed under its MSV key.
        for tt, signature in zip(burst, signatures):
            if tt.n == 6:
                class_id = library.lookup(tt).class_id
                assert class_id in incremental[signature]
        library._chains = None
        assert library._chain_index() == incremental
        for tt in burst:
            hit = library.match(tt)
            assert hit is not None and hit.verify(tt)
        learner.close()

    def test_n7_miss_learns_through_the_scalar_path(
        self, tmp_path, monkeypatch
    ):
        from repro.canonical.form import influence_canonical_scalar

        self.forbid_matcher(monkeypatch)
        learner = make_learner(tmp_path)
        tt = TruthTable.random(7, random.Random(34))
        outcome = learner.learn([tt])[0]
        assert outcome is not None and outcome.verify(tt)
        assert outcome.representative == influence_canonical_scalar(tt)
        assert learner.minted == 1
        learner.close()

    def test_a_witness_that_fails_its_apply_check_raises(
        self, tmp_path, monkeypatch
    ):
        from repro.core.transforms import TransformColumns
        from repro.library import online

        real = online.canonical_forms_with_transforms

        def wrong(tables):
            forms, t = real(tables)
            return forms, TransformColumns(
                t.ns, t.perms, t.input_phases, 1 - t.output_phases
            )

        monkeypatch.setattr(online, "canonical_forms_with_transforms", wrong)
        learner = make_learner(tmp_path)
        with pytest.raises(RuntimeError, match="canonicalizer bug"):
            learner.learn([TruthTable.majority(3)])
        # Raised before any mutation: nothing stored, nothing logged.
        assert learner.library.num_classes == 0 and learner.minted == 0
        learner.close()

    def test_wal_replay_reproduces_the_same_ids(self, tmp_path):
        learner = make_learner(tmp_path)
        rng = random.Random(35)
        queries = [TruthTable.random(n, rng) for n in range(7) for _ in range(3)]
        ids = [learner.learn([tt])[0].class_id for tt in queries]
        learner.close()

        reopened = make_learner(tmp_path)
        assert set(reopened.library.classes) == set(ids)
        for tt, class_id in zip(queries, ids):
            hit = reopened.library.match(tt)
            assert hit is not None and hit.class_id == class_id
            assert hit.verify(tt)
            assert reopened.learn([tt])[0].class_id == class_id
        assert reopened.minted == 0
        reopened.close()


class TestMatchManyLearns:
    """``match_many(learn=)``: one library call resolves a batch.

    The match hands each miss's canonical form (n <= 5) or signature
    (n > 5) to ``learn``, which computes nothing the match already did.
    """

    def test_a_small_miss_and_its_mint_cost_one_kernel_row(
        self, tmp_path, monkeypatch
    ):
        from repro.canonical import form

        learner = make_learner(tmp_path)
        learner.learn([TruthTable.majority(3)])
        rows = []
        kernel = form.canonical_min_transforms
        monkeypatch.setattr(
            form,
            "canonical_min_transforms",
            lambda ints, n: rows.append(len(ints)) or kernel(ints, n),
        )
        tt = TruthTable.random(4, random.Random(42))
        (match,) = learner.library.match_many([tt], learn=learner.learn)
        assert match.verify(tt) and learner.minted == 2
        assert rows == [1]
        rng = random.Random(43)
        misses = [TruthTable.random(5, rng) for _ in range(3)]
        matches = learner.library.match_many(misses, learn=learner.learn)
        assert all(m.verify(tt) for m, tt in zip(matches, misses))
        assert rows == [1, 3]
        learner.close()

    def test_two_misses_of_one_orbit_in_a_batch_mint_once(self, tmp_path):
        from repro.core.transforms import random_transform

        learner = make_learner(tmp_path)
        learner.learn([TruthTable.majority(3)])
        rng = random.Random(44)
        batch = []
        for n in (4, 6):
            tt = TruthTable.random(n, rng)
            batch += [tt, tt.apply(random_transform(n, rng))]
        matches = learner.library.match_many(batch, learn=learner.learn)
        assert all(m.verify(tt) for m, tt in zip(matches, batch))
        assert matches[0].class_id == matches[1].class_id
        assert matches[2].class_id == matches[3].class_id
        assert learner.minted == 3 and learner.pending_records == 3
        learner.close()

    def test_a_learner_on_an_empty_library_mints_the_first_miss(
        self, tmp_path
    ):
        learner = make_learner(tmp_path)
        assert learner.library.num_classes == 0
        rng = random.Random(45)
        batch = [TruthTable.random(4, rng), TruthTable.random(6, rng)]
        matches = learner.library.match_many(batch, learn=learner.learn)
        assert all(m.verify(tt) for m, tt in zip(matches, batch))
        assert learner.minted == 2
        # The n = 6 mint joined the chains its batch built.
        assert learner.library.match(batch[1]).class_id == matches[1].class_id
        learner.close()

    def test_an_n7_miss_still_learns(self, tmp_path, monkeypatch):
        from repro.canonical import form

        learner = make_learner(tmp_path)
        searches = []
        search = form._influence_search
        monkeypatch.setattr(
            form,
            "_influence_search",
            lambda tt: searches.append(tt) or search(tt),
        )
        tt = TruthTable.random(7, random.Random(46))
        (match,) = learner.library.match_many([tt], learn=learner.learn)
        assert match.verify(tt)
        assert learner.minted == 1 and len(searches) == 1
        assert learner.library.match(tt).class_id == match.class_id
        learner.close()


def _learn_run(directory, batches) -> tuple[list[str], list[str], str]:
    """Class ids, sorted WAL records and compacted ``classes.npz`` sha256."""
    import hashlib
    import json

    learner = make_learner(directory)
    ids = []
    for batch in batches:
        matches = learner.library.match_many(batch, learn=learner.learn)
        assert all(m.verify(tt) for m, tt in zip(matches, batch))
        ids += [m.class_id for m in matches]
    learner.close_segment()
    records = sorted(
        json.dumps(record, sort_keys=True)
        for segment in learner.segments
        for record in replay_segment(segment).records
    )
    learner.compact()
    learner.close()
    digest = hashlib.sha256((directory / "classes.npz").read_bytes()).hexdigest()
    return ids, records, digest


@settings(max_examples=20)
@given(data=st.data())
def test_batched_learning_equals_one_query_at_a_time(data):
    """Differential: batch splits change no id, WAL record or image byte."""
    import tempfile
    from pathlib import Path

    orbits = data.draw(
        st.lists(npn_orbits(max_images=3), min_size=1, max_size=4)
    )
    queries = [tt for seed, images in orbits for tt in (seed, *images)]
    queries = data.draw(st.permutations(queries))
    cuts = sorted(
        data.draw(st.sets(st.integers(1, len(queries) - 1), max_size=3))
        if len(queries) > 1
        else []
    )
    batches = [
        list(queries[a:b]) for a, b in zip([0, *cuts], [*cuts, len(queries)])
    ]
    with tempfile.TemporaryDirectory() as batched:
        by_batch = _learn_run(Path(batched), batches)
    with tempfile.TemporaryDirectory() as single:
        by_query = _learn_run(Path(single), [[tt] for tt in queries])
    assert by_batch == by_query
    ids, records, _ = by_batch
    assert len(records) == len(set(ids))  # one record per minted orbit
