"""Packed-batch representation and word kernels vs. the big-int oracle."""

import numpy as np
import pytest

from repro.core import bitops
from repro.core.truth_table import TruthTable
from repro.engine.packed import (
    PackedTables,
    masked_popcount_rows,
    popcount_rows,
    popcount_words,
    unpack_word_bits,
)
from repro.workloads import random_tables


class TestPackedTables:
    @pytest.mark.parametrize("n", [0, 1, 3, 5, 6, 7, 8])
    def test_roundtrip(self, n):
        tables = random_tables(n, 17, seed=n)
        packed = PackedTables.from_tables(tables)
        assert len(packed) == 17
        assert packed.words.shape == (17, bitops.words_per_table(n))
        assert packed.to_tables() == tables
        assert packed.to_ints() == [tt.bits for tt in tables]
        assert packed.table(3) == tables[3]

    def test_from_ints_matches_to_words(self):
        tables = random_tables(7, 5, seed=1)
        packed = PackedTables.from_ints(7, [tt.bits for tt in tables])
        for row, tt in zip(packed.words, tables):
            assert np.array_equal(row, bitops.to_words(tt.bits, 7))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            PackedTables.from_tables([])
        with pytest.raises(ValueError):
            PackedTables.from_ints(4, [])

    def test_rejects_mixed_arities(self):
        with pytest.raises(ValueError, match="mixed arities"):
            PackedTables.from_tables([TruthTable(3, 5), TruthTable(4, 5)])

    def test_rejects_overflowing_small_tables(self):
        with pytest.raises(ValueError, match="does not fit"):
            PackedTables(3, np.array([[1 << 9]], dtype=np.uint64))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PackedTables(7, np.zeros((4, 1), dtype=np.uint64))

    def test_owns_a_frozen_copy_of_the_input(self):
        source = np.array([[0b1110_1000]], dtype=np.uint64)
        packed = PackedTables(3, source)
        source[0, 0] = 0xFFFF_FFFF  # caller mutation must not leak in
        assert packed.to_ints() == [0b1110_1000]
        with pytest.raises(ValueError):
            packed.words[0, 0] = 0


class TestKernels:
    @pytest.fixture(params=[1, 4, 6, 7, 8], scope="class")
    def batch(self, request):
        n = request.param
        tables = random_tables(n, 23, seed=100 + n)
        return tables, PackedTables.from_tables(tables)

    def test_popcount_rows(self, batch):
        tables, packed = batch
        expected = [tt.count_ones() for tt in tables]
        assert popcount_rows(packed.words).tolist() == expected

    def test_popcount_words_fallback_path(self):
        values = np.array([[0, 1, 0xFFFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0001]],
                          dtype=np.uint64)
        assert popcount_words(values).tolist() == [[0, 1, 64, 2]]

    def test_masked_popcount_single_and_stacked(self, batch):
        tables, packed = batch
        n = packed.n
        for i in range(n):
            mask = bitops.mask_words(bitops.var_mask(n, i), n)
            expected = [
                bitops.popcount(tt.bits & bitops.var_mask(n, i)) for tt in tables
            ]
            assert masked_popcount_rows(packed.words, mask).tolist() == expected
        if n:
            stack = np.stack(
                [bitops.mask_words(bitops.var_mask(n, i), n) for i in range(n)]
            )
            got = masked_popcount_rows(packed.words, stack)
            assert got.shape == (len(tables), n)

    def test_unpack_bits_matches_bit_array(self, batch):
        tables, packed = batch
        bits = unpack_word_bits(packed.words, packed.n)
        assert bits.shape == (len(tables), 1 << packed.n)
        for row, tt in zip(bits, tables):
            assert np.array_equal(row, tt.bit_array())


class TestWordConversions:
    @pytest.mark.parametrize("n", [0, 2, 6, 9])
    def test_to_from_words_roundtrip(self, n):
        for tt in random_tables(n, 10, seed=n + 50):
            words = bitops.to_words(tt.bits, n)
            assert words.shape == (bitops.words_per_table(n),)
            assert bitops.from_words(words, n) == tt.bits

    def test_from_words_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            bitops.from_words(np.zeros(2, dtype=np.uint64), 6)
