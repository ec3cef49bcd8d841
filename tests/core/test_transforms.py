"""Tests for the NPN transformation group."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitops
from repro.core.transforms import (
    NPNTransform,
    all_transforms,
    group_order,
    random_transform,
)


def random_table(rng: random.Random, n: int) -> int:
    return rng.getrandbits(1 << n)


class TestValidation:
    def test_rejects_bad_perm(self):
        with pytest.raises(ValueError):
            NPNTransform((0, 0), 0, 0)

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            NPNTransform((0, 1), 4, 0)
        with pytest.raises(ValueError):
            NPNTransform((0, 1), 0, 2)

    def test_identity_properties(self):
        t = NPNTransform.identity(4)
        assert t.is_identity
        assert t.n == 4
        assert not NPNTransform((0, 1), 1, 0).is_identity
        assert not NPNTransform((1, 0), 0, 0).is_identity
        assert not NPNTransform((0, 1), 0, 1).is_identity


class TestApply:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_apply_matches_reference(self, n):
        rng = random.Random(n * 3 + 1)
        table = random_table(rng, n)
        for _ in range(25):
            t = random_transform(n, rng)
            expected = bitops.apply_transform_reference(
                table, n, t.perm, t.input_phase, t.output_phase
            )
            assert t.apply_table(table, n) == expected

    def test_identity_apply(self):
        rng = random.Random(0)
        for n in range(1, 7):
            table = random_table(rng, n)
            assert NPNTransform.identity(n).apply_table(table, n) == table

    def test_apply_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            NPNTransform.identity(3).apply_table(0b0110, 2)

    def test_output_negation_only(self):
        t = NPNTransform((0, 1, 2), 0, 1)
        maj = 0b11101000
        assert t.apply_table(maj, 3) == 0b00010111

    def test_apply_index_consistent_with_apply_table(self):
        rng = random.Random(99)
        n = 4
        table = random_table(rng, n)
        for _ in range(20):
            t = random_transform(n, rng)
            image = t.apply_table(table, n)
            for m in range(1 << n):
                src = t.apply_index(m)
                expected = ((table >> src) & 1) ^ t.output_phase
                assert (image >> m) & 1 == expected


class TestGroupStructure:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_compose_matches_sequential_apply(self, n):
        rng = random.Random(n * 7)
        table = random_table(rng, n)
        for _ in range(30):
            t1 = random_transform(n, rng)
            t2 = random_transform(n, rng)
            sequential = t1.apply_table(t2.apply_table(table, n), n)
            assert t1.compose(t2).apply_table(table, n) == sequential

    @pytest.mark.parametrize("n", range(1, 6))
    def test_inverse_roundtrip(self, n):
        rng = random.Random(n * 11)
        table = random_table(rng, n)
        for _ in range(30):
            t = random_transform(n, rng)
            assert t.inverse().apply_table(t.apply_table(table, n), n) == table
            assert t.apply_table(t.inverse().apply_table(table, n), n) == table

    def test_inverse_composes_to_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_transform(5, rng)
            assert t.compose(t.inverse()).is_identity
            assert t.inverse().compose(t).is_identity

    def test_compose_associative(self):
        rng = random.Random(17)
        n = 4
        for _ in range(20):
            a, b, c = (random_transform(n, rng) for _ in range(3))
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_compose_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            NPNTransform.identity(2).compose(NPNTransform.identity(3))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_group_order(self, n):
        transforms = list(all_transforms(n))
        assert len(transforms) == group_order(n)
        assert len(set(transforms)) == len(transforms)

    def test_np_subgroup_order(self):
        transforms = list(all_transforms(3, include_output=False))
        assert len(transforms) == group_order(3) // 2
        assert all(t.output_phase == 0 for t in transforms)

    def test_orbit_of_and2_under_group(self):
        """The NPN orbit of 2-input AND contains exactly the 8 'and-like' functions."""
        and2 = 0b1000
        orbit = {t.apply_table(and2, 2) for t in all_transforms(2)}
        # AND-type functions: exactly one or exactly three minterms set.
        expected = {t for t in range(16) if bin(t).count("1") in (1, 3)}
        assert orbit == expected

    def test_orbit_of_xor_is_small(self):
        xor2 = 0b0110
        orbit = {t.apply_table(xor2, 2) for t in all_transforms(2)}
        assert orbit == {0b0110, 0b1001}

    def test_majority_is_self_dual(self):
        """MAJ3 is invariant under complementing all inputs and the output."""
        maj = 0b11101000
        t = NPNTransform((0, 1, 2), 0b111, 1)
        assert t.apply_table(maj, 3) == maj


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_property_group_action(n, rng):
    """(t1*t2)(f) == t1(t2(f)) and inverses cancel, for random elements."""
    table = rng.getrandbits(1 << n)
    t1 = random_transform(n, rng)
    t2 = random_transform(n, rng)
    composed = t1.compose(t2)
    assert composed.apply_table(table, n) == t1.apply_table(
        t2.apply_table(table, n), n
    )
    assert composed.inverse().apply_table(composed.apply_table(table, n), n) == table


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_property_satisfy_count_orbit(n, rng):
    """|t(f)| equals |f| or 2^n - |f| depending on output negation."""
    table = rng.getrandbits(1 << n)
    t = random_transform(n, rng)
    image = t.apply_table(table, n)
    count = bitops.popcount(table)
    expected = (1 << n) - count if t.output_phase else count
    assert bitops.popcount(image) == expected
