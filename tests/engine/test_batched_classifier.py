"""BatchedClassifier: never-split parity, in-batch dedupe, batched pieces."""

import numpy as np
import pytest

from repro.core.classifier import FacePointClassifier
from repro.core.msv import DEFAULT_PARTS, PART_NAMES, compute_msv, compute_pieces
from repro.engine import BatchedClassifier, PackedTables
from repro.engine.signatures import batched_pieces, fwht_batch
from repro.spectral.walsh import fwht
from repro.workloads import random_tables, seeded_equivalent_tables


class TestNeverSplitParity:
    """The engine's contract: buckets identical to FacePointClassifier."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_seeded_orbits_identical_buckets(self, n):
        tables, upper_bound = seeded_equivalent_tables(
            n, orbits=12, members_per_orbit=4, seed=900 + n
        )
        reference = FacePointClassifier().classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert batched.buckets_digest() == reference.buckets_digest()
        assert batched.num_classes <= upper_bound

    @pytest.mark.parametrize("n", [0, 1, 5, 6, 7, 8])
    def test_random_tables_identical_buckets(self, n):
        tables = random_tables(n, 64, seed=n + 7)
        reference = FacePointClassifier().classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert batched.buckets_digest() == reference.buckets_digest()

    def test_all_parts_parity(self):
        tables = random_tables(4, 40, seed=11)
        reference = FacePointClassifier(PART_NAMES).classify(tables)
        batched = BatchedClassifier(PART_NAMES).classify(tables)
        assert batched.buckets_digest() == reference.buckets_digest()

    def test_packed_input_matches_list_input(self):
        packed = PackedTables.from_tables(
            seeded_equivalent_tables(5, 10, 3, seed=5)[0]
        )
        tables = packed.to_tables()
        from_packed = BatchedClassifier().classify(packed)
        from_list = BatchedClassifier().classify(tables)
        assert from_packed.buckets_digest() == from_list.buckets_digest()

    def test_mixed_arity_signatures(self):
        tables = random_tables(3, 10, seed=1) + random_tables(5, 10, seed=2)
        tables = [tables[i] for i in (5, 12, 0, 19, 7, 15, 3)]
        classifier = BatchedClassifier()
        assert classifier.signatures(tables) == [compute_msv(tt) for tt in tables]

    def test_single_signature_matches_compute_msv(self):
        tt = random_tables(6, 1, seed=77)[0]
        assert BatchedClassifier().signature(tt) == compute_msv(tt)

    def test_count_classes(self):
        tables, _ = seeded_equivalent_tables(4, 8, 3, seed=21)
        assert (
            BatchedClassifier().count_classes(tables)
            == FacePointClassifier().count_classes(tables)
        )

    def test_chunking_does_not_change_results(self):
        tables = random_tables(5, 50, seed=31)
        small_chunks = BatchedClassifier(chunk_size=7).classify(tables)
        one_chunk = BatchedClassifier(chunk_size=1000).classify(tables)
        assert small_chunks.buckets_digest() == one_chunk.buckets_digest()


class TestBatchedPieces:
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6, 7])
    def test_matches_per_function_pieces(self, n):
        tables = random_tables(n, 20, seed=n + 40)
        packed = PackedTables.from_tables(tables)
        selected = tuple(name for name in PART_NAMES if name != "spectral")
        bulk = batched_pieces(packed, selected)
        for piece, tt in zip(bulk, tables):
            reference = compute_pieces(tt, selected)
            assert piece.count == reference.count
            assert sorted(piece.cof1) == sorted(reference.cof1)
            assert sorted(piece.cof2) == sorted(reference.cof2)
            assert sorted(piece.cof3) == sorted(reference.cof3)
            for field in (
                "oiv",
                "hist1",
                "hist0",
                "hist_full",
                "osdv1",
                "osdv0",
                "osdv_full",
            ):
                assert getattr(piece, field) == getattr(reference, field), field

    def test_fwht_batch_matches_scalar_fwht(self):
        rng = np.random.default_rng(3)
        block = rng.integers(-5, 6, size=(9, 32), dtype=np.int64)
        original = block.copy()
        batched = fwht_batch(block)
        assert np.array_equal(block, original)  # input is never modified
        for row_in, row_out in zip(block, batched):
            assert np.array_equal(fwht(row_in), row_out)

    def test_fwht_batch_accepts_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        wide = rng.integers(-3, 4, size=(16, 9), dtype=np.int64)
        assert np.array_equal(fwht_batch(wide.T), np.stack([fwht(r) for r in wide.T]))


class TestInBatchDedupe:
    def test_in_batch_duplicates_computed_once(self, monkeypatch):
        import repro.engine.classifier as engine_classifier

        rows = []

        def spy(packed, *args, **kwargs):
            rows.append(len(packed))
            return batched_pieces(packed, *args, **kwargs)

        monkeypatch.setattr(engine_classifier, "batched_pieces", spy)
        a, b = random_tables(4, 2, seed=17)
        signatures = BatchedClassifier().signatures([a, b, a, a, b])
        assert signatures[0] == signatures[2] == signatures[3]
        assert signatures[1] == signatures[4]
        assert rows == [2]  # one kernel row per distinct table
