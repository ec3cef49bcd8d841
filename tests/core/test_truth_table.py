"""Tests for the TruthTable value type."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops
from repro.core.transforms import NPNTransform, random_transform
from repro.core.truth_table import TruthTable

MAJ3 = TruthTable.from_binary("11101000")  # paper Fig. 1a


class TestConstructors:
    def test_from_binary_majority(self):
        assert MAJ3.n == 3
        assert MAJ3.bits == 0xE8

    def test_from_binary_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TruthTable.from_binary("101")  # not a power of two
        with pytest.raises(ValueError):
            TruthTable.from_binary("10a0")
        with pytest.raises(ValueError):
            TruthTable.from_binary("")

    def test_from_binary_allows_separators(self):
        assert TruthTable.from_binary("1110_1000") == MAJ3

    def test_from_hex_roundtrip(self):
        assert TruthTable.from_hex(3, "e8") == MAJ3
        assert TruthTable.from_hex(3, "0xE8") == MAJ3
        assert MAJ3.to_hex() == "e8"

    def test_from_hex_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            TruthTable.from_hex(4, "e8")

    def test_from_function(self):
        tt = TruthTable.from_function(3, lambda a, b, c: (a & b) | c)
        expected = (TruthTable.projection(3, 0) & TruthTable.projection(3, 1)) | (
            TruthTable.projection(3, 2)
        )
        assert tt == expected

    def test_constant(self):
        zero = TruthTable.constant(3, 0)
        one = TruthTable.constant(3, 1)
        assert zero.count_ones() == 0
        assert one.count_ones() == 8
        assert ~zero == one

    def test_projection(self):
        x1 = TruthTable.projection(3, 1)
        assert [x1.evaluate(m) for m in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]
        assert TruthTable.projection(3, 1, complemented=True) == ~x1

    def test_majority_factory(self):
        assert TruthTable.majority(3) == MAJ3
        with pytest.raises(ValueError):
            TruthTable.majority(4)

    def test_random_is_in_range(self):
        rng = random.Random(1)
        for n in range(1, 8):
            tt = TruthTable.random(n, rng)
            assert 0 <= tt.bits < (1 << (1 << n))

    def test_validation(self):
        with pytest.raises(ValueError):
            TruthTable(2, 16)
        with pytest.raises(ValueError):
            TruthTable(-1, 0)


class TestInspection:
    def test_evaluate_by_tuple_and_index(self):
        assert MAJ3.evaluate((1, 1, 0)) == 1
        assert MAJ3.evaluate((1, 0, 0)) == 0
        assert MAJ3.evaluate(0b011) == 1
        with pytest.raises(ValueError):
            MAJ3.evaluate((1, 1))
        with pytest.raises(ValueError):
            MAJ3.evaluate(8)

    def test_counts(self):
        assert MAJ3.count_ones() == 4
        assert MAJ3.is_balanced
        assert not (MAJ3 & TruthTable.projection(3, 0)).is_balanced

    def test_minterms(self):
        assert list(MAJ3.minterms()) == [3, 5, 6, 7]
        assert list(TruthTable.constant(2, 0).minterms()) == []

    def test_support_full(self):
        assert MAJ3.support() == (0, 1, 2)
        assert not MAJ3.is_degenerate

    def test_support_degenerate(self):
        # x0 AND x2 as a 3-var function ignores x1.
        tt = TruthTable.projection(3, 0) & TruthTable.projection(3, 2)
        assert tt.support() == (0, 2)
        assert tt.is_degenerate

    def test_symmetric_pairs(self):
        assert MAJ3.has_symmetric_pair(0, 1)
        assert MAJ3.has_symmetric_pair(1, 2)
        and_or = TruthTable.from_function(3, lambda a, b, c: (a & b) | c)
        assert and_or.has_symmetric_pair(0, 1)
        assert not and_or.has_symmetric_pair(0, 2)


class TestAlgebra:
    def test_operators(self):
        a = TruthTable.projection(2, 0)
        b = TruthTable.projection(2, 1)
        assert (a & b) == TruthTable.from_binary("1000")
        assert (a | b) == TruthTable.from_binary("1110")
        assert (a ^ b) == TruthTable.from_binary("0110")
        assert ~(a & b) == TruthTable.from_binary("0111")

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            TruthTable.projection(2, 0) & TruthTable.projection(3, 0)
        with pytest.raises(TypeError):
            TruthTable.projection(2, 0) & 3

    def test_ordering_and_hash(self):
        a = TruthTable.from_binary("1000")
        b = TruthTable.from_binary("1110")
        assert a < b
        assert len({a, b, TruthTable.from_binary("1000")}) == 2


class TestCofactorsAndTransforms:
    def test_cofactor_semantics(self):
        # MAJ3 | x2=1 is OR of the other two; | x2=0 is AND.
        assert MAJ3.cofactor(2, 1) == TruthTable.from_binary("1110")
        assert MAJ3.cofactor(2, 0) == TruthTable.from_binary("1000")

    def test_cofactor_count_matches_cofactor(self):
        rng = random.Random(2)
        for _ in range(20):
            tt = TruthTable.random(5, rng)
            for i in range(5):
                for v in (0, 1):
                    assert tt.cofactor_count(i, v) == tt.cofactor(i, v).count_ones()

    def test_cofactor_of_nullary_raises(self):
        with pytest.raises(ValueError):
            TruthTable(0, 1).cofactor(0, 0)

    def test_shannon_expansion(self):
        rng = random.Random(3)
        tt = TruthTable.random(4, rng)
        for i in range(4):
            xi = TruthTable.projection(4, i)
            pos = bitops.insert_variable(tt.cofactor(i, 1).bits, 3, i)
            neg = bitops.insert_variable(tt.cofactor(i, 0).bits, 3, i)
            assert (xi & TruthTable(4, pos)) | (~xi & TruthTable(4, neg)) == tt

    def test_flip_and_swap(self):
        a, b = TruthTable.projection(3, 0), TruthTable.projection(3, 1)
        f = a & ~b
        assert f.flip_input(1) == (a & b)
        assert f.swap_inputs(0, 1) == (b & ~a)
        assert f.flip_inputs(0b011) == (~a & b)

    def test_permute(self):
        f = TruthTable.projection(3, 0)
        # g(x) = f(x2, x0, x1) = x2.
        assert f.permute((2, 0, 1)) == TruthTable.projection(3, 2)

    def test_apply_transform(self):
        rng = random.Random(4)
        tt = TruthTable.random(4, rng)
        t = random_transform(4, rng)
        assert tt.apply(t).bits == t.apply_table(tt.bits, 4)
        assert tt.apply(NPNTransform.identity(4)) == tt

    def test_extend(self):
        and2 = TruthTable.from_binary("1000")
        wide = and2.extend(4)
        assert wide.n == 4
        assert wide.support() == (0, 1)
        assert wide.cofactor(3, 0).cofactor(2, 0) == and2
        with pytest.raises(ValueError):
            wide.extend(2)


class TestRendering:
    def test_binary_roundtrip(self):
        assert MAJ3.to_binary() == "11101000"
        assert TruthTable.from_binary(MAJ3.to_binary()) == MAJ3

    def test_repr_and_str(self):
        assert "e8" in repr(MAJ3)
        assert str(MAJ3) == "0xe8"
        assert str(TruthTable.from_binary("10")) == "10"

    def test_bit_array(self):
        arr = MAJ3.bit_array()
        assert arr.tolist() == [0, 0, 0, 1, 0, 1, 1, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_property_double_complement(n, rng):
    tt = TruthTable(n, rng.getrandbits(1 << n))
    assert ~~tt == tt
    assert (tt ^ tt).count_ones() == 0
    assert (tt ^ ~tt).count_ones() == 1 << n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
def test_property_cofactor_counts_sum(n, rng):
    """|f| = |f_{xi=0}| + |f_{xi=1}| for every variable (face decomposition)."""
    tt = TruthTable(n, rng.getrandbits(1 << n))
    for i in range(n):
        assert tt.cofactor_count(i, 0) + tt.cofactor_count(i, 1) == tt.count_ones()
