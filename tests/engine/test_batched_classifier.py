"""BatchedClassifier: rows equal to compute_msv, never-split parity, dedupe."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import FacePointClassifier
from repro.core.msv import (
    PART_NAMES,
    MixedSignature,
    compute_msv,
    compute_pieces,
    msv_from_pieces,
    normalize_parts,
)
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier, PackedTables
from repro.engine.signatures import (
    _chunk_rows,
    _fwht_minterms_first,
    nested_keys,
    signature_keys,
)
from repro.experiments.table2 import COLUMNS
from repro.spectral.walsh import fwht
from repro.workloads import random_tables
from tests.corpora import seeded_equivalent_tables
from tests.msv_rows import flat_key, flatten
from tests.strategies import npn_orbits, truth_tables

#: Every part selection of Table II, plus all parts at once.
SELECTIONS = sorted(
    {normalize_parts(parts) for parts in COLUMNS.values()} | {PART_NAMES}
)


@st.composite
def balanced_tables(draw, n: int) -> TruthTable:
    """A function with exactly half its minterms set (the phase tie).

    No 0-variable function is balanced; n = 0 draws a constant.
    """
    if n == 0:
        return TruthTable(0, draw(st.integers(0, 1)))
    order = draw(st.permutations(range(1 << n)))
    return TruthTable(n, sum(1 << m for m in order[: 1 << (n - 1)]))


@st.composite
def signature_batches(draw, n: int) -> list[TruthTable]:
    """Random, balanced and constant tables plus NPN images, shuffled."""
    tables = draw(st.lists(truth_tables(n=n), max_size=4))
    tables += draw(st.lists(balanced_tables(n), min_size=1, max_size=3))
    tables += [TruthTable(n, 0), ~TruthTable(n, 0)]
    seed_function, images = draw(npn_orbits(n=n, max_images=3))
    tables += [seed_function, *images, ~images[0]]
    return draw(st.permutations(tables))


def assert_rows_equal_the_oracle(tables, parts):
    """The flat rows are ``compute_msv``'s flattened keys, and nesting
    them gives back its keys and digests."""
    n = tables[0].n
    batched = BatchedClassifier(parts).signatures(tables)
    oracle = [compute_msv(tt, parts) for tt in tables]
    assert batched == [flat_key(signature) for signature in oracle]
    nested = [MixedSignature(n, parts, key) for key in nested_keys(n, parts, batched)]
    assert nested == oracle
    assert [s.digest() for s in nested] == [s.digest() for s in oracle]


class TestKeysEqualComputeMsv:
    """The batched engine's rows are ``compute_msv``'s keys, flattened."""

    @pytest.mark.parametrize("n", range(9))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_signatures_and_digests_equal_the_oracle(self, n, data):
        parts = data.draw(st.sampled_from(SELECTIONS))
        assert_rows_equal_the_oracle(data.draw(signature_batches(n)), parts)

    @pytest.mark.parametrize("parts", SELECTIONS)
    def test_every_selection_equals_the_oracle(self, parts):
        for n in range(9):
            assert_rows_equal_the_oracle(random_tables(n, 6, seed=n), parts)

    def test_int64_butterfly_above_int32_range_equals_the_oracle(self):
        # The stacked transform runs in int64 from n = 11 (8**n >= 2**31).
        # At n = 12 a constant table's distance sums reach 2**33, which
        # int32 would wrap.
        n = 12
        tables = random_tables(n, 3, seed=53)
        tables += [TruthTable(n, (1 << (1 << (n - 1))) - 1), TruthTable(n, 0)]
        assert_rows_equal_the_oracle(tables, PART_NAMES)


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
        assert classifier.signatures(tables) == [
            flat_key(compute_msv(tt)) for tt in tables
        ]

    def test_single_signature_matches_compute_msv(self):
        tt = random_tables(6, 1, seed=77)[0]
        assert BatchedClassifier().signatures([tt]) == [flat_key(compute_msv(tt))]

    def test_count_classes(self):
        tables, _ = seeded_equivalent_tables(4, 8, 3, seed=21)
        assert (
            BatchedClassifier().count_classes(tables)
            == FacePointClassifier().count_classes(tables)
        )

    def test_chunking_does_not_change_results(self):
        step = _chunk_rows(6)
        distinct = random_tables(6, step + 24, seed=31)
        # Rows from both sides of the chunk boundary repeat in the batch.
        # Dedupe keeps first-seen order, so the kernel sees ``distinct``
        # as is and its boundary falls inside the repeated window.
        window = distinct[step - 3 : step + 3]
        tables = distinct[:step] + window + distinct[step:] + window[::-1]
        signatures = BatchedClassifier().signatures(tables)
        assert signatures == [flat_key(compute_msv(tt)) for tt in tables]


class TestBatchedPieces:
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6, 7])
    def test_matches_per_function_pieces(self, n):
        """Each part alone: its batched key is the per-function pieces'."""
        tables = random_tables(n, 20, seed=n + 40)
        packed = PackedTables.from_tables(tables)
        for name in PART_NAMES:
            rows = signature_keys(packed, (name,))
            assert rows.dtype == np.int64 and rows.shape[0] == len(tables)
            for row, tt in zip(rows.tolist(), tables):
                reference = msv_from_pieces(compute_pieces(tt, (name,)), (name,))
                assert row == flatten(reference.key), name

    def test_fwht_batch_matches_scalar_fwht(self):
        """The stacked butterfly transforms each column like ``fwht``."""
        rng = np.random.default_rng(3)
        for dtype in (np.int32, np.int64):
            stack = rng.integers(-5, 6, size=(32, 9)).astype(dtype)
            original = stack.copy()
            spectra = _fwht_minterms_first(stack)
            assert spectra is stack  # contiguous input: in place
            for column_in, column_out in zip(original.T, spectra.T):
                assert np.array_equal(fwht(column_in), column_out)

    def test_fwht_batch_accepts_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        wide = rng.integers(-3, 4, size=(9, 16), dtype=np.int64)
        original = wide.copy()
        spectra = _fwht_minterms_first(wide.T)
        assert np.array_equal(spectra, np.stack([fwht(r) for r in original]).T)


class TestInBatchDedupe:
    def test_in_batch_duplicates_computed_once(self, monkeypatch):
        import repro.engine.classifier as engine_classifier

        rows = []

        def spy(packed, *args, **kwargs):
            rows.append(len(packed))
            return signature_keys(packed, *args, **kwargs)

        monkeypatch.setattr(engine_classifier, "signature_keys", spy)
        a, b = random_tables(4, 2, seed=17)
        signatures = BatchedClassifier().signatures([a, b, a, a, b])
        assert signatures[0] == signatures[2] == signatures[3]
        assert signatures[1] == signatures[4]
        assert rows == [2]  # one kernel row per distinct table
