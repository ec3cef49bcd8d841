"""Unit and property tests for the bit-level truth-table kernel."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops


def random_table(rng: random.Random, n: int) -> int:
    return rng.getrandbits(1 << n) if n > 0 else rng.getrandbits(1)


def eval_table(table: int, n: int, assignment: tuple[int, ...]) -> int:
    index = sum(bit << i for i, bit in enumerate(assignment))
    return (table >> index) & 1


tables = st.tuples(st.integers(min_value=1, max_value=6), st.data())


class TestMasks:
    def test_table_mask_widths(self):
        assert bitops.table_mask(0) == 0b1
        assert bitops.table_mask(1) == 0b11
        assert bitops.table_mask(3) == 0xFF
        assert bitops.table_mask(6) == (1 << 64) - 1

    def test_var_mask_small_patterns(self):
        assert bitops.var_mask(3, 0) == 0b10101010
        assert bitops.var_mask(3, 1) == 0b11001100
        assert bitops.var_mask(3, 2) == 0b11110000

    @pytest.mark.parametrize("n", range(1, 9))
    def test_var_mask_semantics(self, n):
        for i in range(n):
            mask = bitops.var_mask(n, i)
            for m in range(1 << n):
                assert ((mask >> m) & 1) == ((m >> i) & 1)

    def test_var_mask_bounds(self):
        with pytest.raises(ValueError):
            bitops.var_mask(3, 3)
        with pytest.raises(ValueError):
            bitops.var_mask(3, -1)
        with pytest.raises(ValueError):
            bitops.table_mask(bitops.MAX_VARS + 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_var_mask_is_balanced(self, n):
        for i in range(n):
            assert bitops.popcount(bitops.var_mask(n, i)) == 1 << (n - 1)


class TestFlips:
    def test_flip_output(self):
        assert bitops.flip_output(0b11101000, 3) == 0b00010111

    def test_flip_output_involution(self):
        rng = random.Random(7)
        for n in range(1, 8):
            t = random_table(rng, n)
            assert bitops.flip_output(bitops.flip_output(t, n), n) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_flip_input_semantics(self, n):
        rng = random.Random(n)
        t = random_table(rng, n)
        for i in range(n):
            flipped = bitops.flip_input(t, n, i)
            for m in range(1 << n):
                assert ((flipped >> m) & 1) == ((t >> (m ^ (1 << i))) & 1)

    def test_flip_input_involution(self):
        rng = random.Random(13)
        for n in range(1, 8):
            t = random_table(rng, n)
            for i in range(n):
                assert bitops.flip_input(bitops.flip_input(t, n, i), n, i) == t

    @pytest.mark.parametrize("n", range(1, 6))
    def test_flip_inputs_phase_word(self, n):
        rng = random.Random(n * 31)
        t = random_table(rng, n)
        for phase in range(1 << n):
            expected = t
            for i in range(n):
                if (phase >> i) & 1:
                    expected = bitops.flip_input(expected, n, i)
            assert bitops.flip_inputs(t, n, phase) == expected

    def test_flip_inputs_order_independent(self):
        # Input flips on distinct variables commute.
        rng = random.Random(5)
        t = random_table(rng, 5)
        a = bitops.flip_input(bitops.flip_input(t, 5, 1), 5, 3)
        b = bitops.flip_input(bitops.flip_input(t, 5, 3), 5, 1)
        assert a == b == bitops.flip_inputs(t, 5, 0b01010)


class TestSwapsAndPermutations:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_swap_semantics(self, n):
        rng = random.Random(n * 17)
        t = random_table(rng, n)
        for i in range(n):
            for j in range(n):
                swapped = bitops.swap_inputs(t, n, i, j)
                for m in range(1 << n):
                    bi, bj = (m >> i) & 1, (m >> j) & 1
                    src = m & ~((1 << i) | (1 << j))
                    src |= (bj << i) | (bi << j)
                    assert ((swapped >> m) & 1) == ((t >> src) & 1)

    def test_swap_involution_and_identity(self):
        rng = random.Random(3)
        t = random_table(rng, 6)
        assert bitops.swap_inputs(t, 6, 2, 2) == t
        assert bitops.swap_inputs(bitops.swap_inputs(t, 6, 1, 4), 6, 4, 1) == t

    @pytest.mark.parametrize("n", range(1, 6))
    def test_permute_matches_reference_exhaustive(self, n):
        rng = random.Random(n * 101)
        t = random_table(rng, n)
        for perm in itertools.permutations(range(n)):
            assert bitops.permute_inputs(t, n, perm) == (
                bitops.permute_inputs_reference(t, n, perm)
            )

    def test_permute_identity(self):
        rng = random.Random(11)
        t = random_table(rng, 7)
        assert bitops.permute_inputs(t, 7, tuple(range(7))) == t

    def test_permute_composition(self):
        # permute(permute(f, sigma), tau) == permute(f, [tau[sigma[k]]]).
        rng = random.Random(23)
        n = 6
        t = random_table(rng, n)
        for _ in range(20):
            sigma = tuple(rng.sample(range(n), n))
            tau = tuple(rng.sample(range(n), n))
            left = bitops.permute_inputs(bitops.permute_inputs(t, n, sigma), n, tau)
            composed = tuple(tau[sigma[k]] for k in range(n))
            assert left == bitops.permute_inputs(t, n, composed)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            bitops.permute_inputs(0b1010, 2, (0, 0))
        with pytest.raises(ValueError):
            bitops.permute_inputs(0b1010, 2, (0, 1, 2))

    def test_permute_on_projection_function(self):
        # Moving variable x_0 into slot 2 turns the x_0 projection into x_2.
        n = 3
        proj_x0 = bitops.var_mask(n, 0)
        perm = (2, 0, 1)  # slot 0 reads old x_2, slot 1 reads x_0, slot 2 reads x_1
        moved = bitops.permute_inputs(proj_x0, n, perm)
        # g(x) = f(x_2, x_0, x_1) = x_2 for f = x_0-projection.
        assert moved == bitops.var_mask(n, 2)


class TestTransformReference:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_reference_identity(self, n):
        rng = random.Random(n)
        t = random_table(rng, n)
        assert bitops.apply_transform_reference(t, n, tuple(range(n)), 0, 0) == t

    def test_reference_output_negation(self):
        t = 0b0110
        assert bitops.apply_transform_reference(t, 2, (0, 1), 0, 1) == 0b1001

    def test_reference_composes_flip_and_permute(self):
        # The transform semantics is: flip f's inputs first, then permute.
        rng = random.Random(77)
        n = 4
        t = random_table(rng, n)
        perm = (2, 0, 3, 1)
        phase = 0b0110
        via_parts = bitops.flip_inputs(t, n, phase)
        via_parts = bitops.permute_inputs(via_parts, n, perm)
        assert via_parts == bitops.apply_transform_reference(t, n, perm, phase, 0)


class TestCofactorProjection:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_project_semantics(self, n):
        rng = random.Random(n * 7)
        t = random_table(rng, n)
        for i in range(n):
            for v in (0, 1):
                sub = bitops.project_cofactor(t, n, i, v)
                for m in range(1 << (n - 1)):
                    low = m & ((1 << i) - 1)
                    high = (m >> i) << (i + 1)
                    full = low | (v << i) | high
                    assert ((sub >> m) & 1) == ((t >> full) & 1)

    def test_project_fits_width(self):
        rng = random.Random(19)
        for n in range(1, 7):
            t = random_table(rng, n)
            for i in range(n):
                for v in (0, 1):
                    sub = bitops.project_cofactor(t, n, i, v)
                    assert sub <= bitops.table_mask(max(n - 1, 0))

    def test_project_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bitops.project_cofactor(0b1010, 2, 2, 0)
        with pytest.raises(ValueError):
            bitops.project_cofactor(0b1010, 2, 0, 2)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_insert_then_project_roundtrip(self, n):
        rng = random.Random(n * 13)
        t = random_table(rng, n)
        for i in range(n + 1):
            widened = bitops.insert_variable(t, n, i)
            assert bitops.project_cofactor(widened, n + 1, i, 0) == t
            assert bitops.project_cofactor(widened, n + 1, i, 1) == t

    def test_insert_makes_variable_redundant(self):
        t = 0b0110  # XOR of two variables
        widened = bitops.insert_variable(t, 2, 1)
        assert bitops.flip_input(widened, 3, 1) == widened


class TestSensitivityWord:
    def test_majority_sensitivity_word(self):
        maj = 0b11101000  # 3-majority, f1 of the paper's Fig. 1a
        # Flipping x_0 changes the output exactly on words where the other
        # two variables disagree.
        word = bitops.sensitivity_word(maj, 3, 0)
        expected = 0
        for m in range(8):
            if ((maj >> m) & 1) != ((maj >> (m ^ 1)) & 1):
                expected |= 1 << m
        assert word == expected

    def test_sensitivity_word_even_popcount(self):
        rng = random.Random(29)
        for n in range(1, 8):
            t = random_table(rng, n)
            for i in range(n):
                assert bitops.popcount(bitops.sensitivity_word(t, n, i)) % 2 == 0

    def test_constant_is_insensitive(self):
        for n in range(1, 6):
            assert bitops.sensitivity_word(0, n, 0) == 0
            assert bitops.sensitivity_word(bitops.table_mask(n), n, n - 1) == 0


class TestNumpyBridge:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_bit_array_roundtrip(self, n):
        rng = random.Random(n + 41)
        t = random_table(rng, n)
        bits = bitops.to_bit_array(t, n)
        assert bits.shape == (1 << n,)
        assert sum(int(b) << m for m, b in enumerate(bits)) == t

    def test_bit_array_order(self):
        bits = bitops.to_bit_array(0b0001, 2)
        assert list(bits) == [1, 0, 0, 0]

    def test_popcount_table(self):
        table = bitops.popcount_table(4)
        for m in range(16):
            assert table[m] == bin(m).count("1")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_property_flip_permute_interchange(n, rng):
    """permute then flip == flip (relabelled) then permute."""
    t = rng.getrandbits(1 << n)
    perm = tuple(rng.sample(range(n), n))
    i = rng.randrange(n)
    # g(x) = f(x_perm[0], ...); flipping g's variable i negates the
    # f-input slot that reads it, i.e. f-variable perm^{-1}[i].
    left = bitops.flip_input(bitops.permute_inputs(t, n, perm), n, i)
    right = bitops.permute_inputs(bitops.flip_input(t, n, perm.index(i)), n, perm)
    assert left == right


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_property_popcount_split_by_variable(n, rng):
    """|f| = |f & x_i| + |f & ~x_i| for every variable."""
    t = rng.getrandbits(1 << n)
    total = bitops.popcount(t)
    for i in range(n):
        mask = bitops.var_mask(n, i)
        pos = bitops.popcount(t & mask)
        neg = bitops.popcount(t & ~mask & bitops.table_mask(n))
        assert pos + neg == total


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_property_projection_counts(n, rng):
    """Satisfy count of a projected cofactor equals the masked popcount."""
    t = rng.getrandbits(1 << n)
    for i in range(n):
        mask = bitops.var_mask(n, i)
        assert bitops.popcount(bitops.project_cofactor(t, n, i, 1)) == (
            bitops.popcount(t & mask)
        )
        assert bitops.popcount(bitops.project_cofactor(t, n, i, 0)) == (
            bitops.popcount(t & ~mask & bitops.table_mask(n))
        )
