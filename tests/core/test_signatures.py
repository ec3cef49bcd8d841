"""Tests for the ordered signature vectors, anchored on the paper's Table I.

``f1`` is the 3-majority of Fig. 1a; ``f3`` is the function of Fig. 1c
(the x3 projection — identified from its printed signature values).
Every assertion in ``TestTableOne`` is a number printed in the paper.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import signatures as sig
from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable

F1 = TruthTable.majority(3)
F3 = TruthTable.projection(3, 2)


class TestTableOne:
    """Exact reproduction of every cell of the paper's Table I."""

    def test_ocv1(self):
        assert sig.ocv1(F1) == (1, 1, 1, 3, 3, 3)
        assert sig.ocv1(F3) == (0, 2, 2, 2, 2, 4)

    def test_ocv2(self):
        assert sig.ocv2(F1) == (0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2)
        assert sig.ocv2(F3) == (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2)

    def test_oiv(self):
        assert sig.oiv(F1) == (2, 2, 2)
        assert sig.oiv(F3) == (0, 0, 4)

    def test_osv1(self):
        assert sig.osv1(F1) == (0, 2, 2, 2)
        assert sig.osv1(F3) == (1, 1, 1, 1)

    def test_osv0(self):
        assert sig.osv0(F1) == (0, 2, 2, 2)
        assert sig.osv0(F3) == (1, 1, 1, 1)

    def test_osv(self):
        assert sig.osv(F1) == (0, 0, 2, 2, 2, 2, 2, 2)
        assert sig.osv(F3) == (1, 1, 1, 1, 1, 1, 1, 1)

    def test_osdv1(self):
        assert sig.osdv1(F1) == (0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0)
        assert sig.osdv1(F3) == (0, 0, 0, 4, 2, 0, 0, 0, 0, 0, 0, 0)

    def test_osdv(self):
        assert sig.osdv(F1) == (0, 0, 1, 0, 0, 0, 6, 6, 3, 0, 0, 0)
        assert sig.osdv(F3) == (0, 0, 0, 12, 12, 4, 0, 0, 0, 0, 0, 0)


class TestVectorShapes:
    def test_ocv_lengths(self):
        rng = random.Random(0)
        tt = TruthTable.random(5, rng)
        assert len(sig.ocv1(tt)) == 10  # 2n
        assert len(sig.ocv2(tt)) == 40  # C(n,2) * 4
        assert len(sig.ocv(tt, 3)) == 80  # C(5,3) * 8

    def test_osv_lengths(self):
        rng = random.Random(1)
        tt = TruthTable.random(4, rng)
        assert len(sig.osv(tt)) == 16
        assert len(sig.osv1(tt)) == tt.count_ones()
        assert len(sig.osv0(tt)) == (1 << tt.n) - tt.count_ones()

    def test_osdv_length(self):
        rng = random.Random(2)
        tt = TruthTable.random(4, rng)
        assert len(sig.osdv(tt)) == 4 * 5  # n * (n + 1)
        assert len(sig.osdv1(tt)) == 4 * 5

    def test_histogram_equals_sorted_multiset(self):
        rng = random.Random(3)
        for n in range(1, 7):
            tt = TruthTable.random(n, rng)
            hist = sig.osv_histogram(tt)
            rebuilt = tuple(
                level for level, count in enumerate(hist) for _ in range(count)
            )
            assert rebuilt == sig.osv(tt)


class TestDefinitionRelations:
    def test_osv_is_merge_of_osv0_osv1(self):
        """Definition 8: OSV = {OSV1, OSV0} as multisets."""
        rng = random.Random(5)
        for n in range(1, 7):
            tt = TruthTable.random(n, rng)
            assert tuple(sorted(sig.osv0(tt) + sig.osv1(tt))) == sig.osv(tt)

    def test_osdv_pair_totals(self):
        """Row i of OSDV sums to C(count_i, 2) where count_i = OSV hist."""
        rng = random.Random(6)
        for n in range(2, 6):
            tt = TruthTable.random(n, rng)
            hist = sig.osv_histogram(tt)
            flat = sig.osdv(tt)
            for level in range(n + 1):
                row = flat[level * n : (level + 1) * n]
                count = hist[level]
                assert sum(row) == count * (count - 1) // 2

    def test_osdv_naive_crosscheck(self):
        """Definition 10 computed by the naive O(4^n) pair scan."""
        rng = random.Random(7)
        from repro.core.characteristics import sensitivity_profile

        for n in range(1, 5):
            tt = TruthTable.random(n, rng)
            profile = sensitivity_profile(tt)
            expected = []
            for level in range(n + 1):
                row = [0] * n
                words = [m for m in range(1 << n) if profile[m] == level]
                for a in range(len(words)):
                    for b in range(a + 1, len(words)):
                        dist = bin(words[a] ^ words[b]).count("1")
                        row[dist - 1] += 1
                expected.extend(row)
            assert sig.osdv(tt) == tuple(expected)

    def test_constant_function_vectors(self):
        one = TruthTable.constant(3, 1)
        assert sig.oiv(one) == (0, 0, 0)
        assert sig.osv(one) == (0,) * 8
        assert sig.osv0(one) == ()
        # All 8 words share sensitivity level 0: 12/12/4 pairs by distance.
        assert sig.osdv(one)[:3] == (12, 12, 4)


class TestTheoremInvariance:
    """Theorems 1-4 as randomized checks (PN transforms preserve vectors)."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pn_invariance_all_vectors(self, n):
        rng = random.Random(n * 37)
        for _ in range(15):
            tt = TruthTable.random(n, rng)
            transform = random_transform(n, rng)
            if transform.output_phase:
                transform = type(transform)(
                    transform.perm, transform.input_phase, 0
                )
            image = tt.apply(transform)
            assert sig.ocv1(image) == sig.ocv1(tt)
            assert sig.ocv2(image) == sig.ocv2(tt)
            assert sig.oiv(image) == sig.oiv(tt)  # Theorem 1
            assert sig.osv(image) == sig.osv(tt)  # Theorem 2
            assert sig.osv0(image) == sig.osv0(tt)
            assert sig.osv1(image) == sig.osv1(tt)
            assert sig.osdv(image) == sig.osdv(tt)  # Theorem 4
            assert sig.osdv0(image) == sig.osdv0(tt)
            assert sig.osdv1(image) == sig.osdv1(tt)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_output_negation_swaps_split_vectors(self, n):
        """Theorem 3 mechanics: complementation swaps the 0/1 splits."""
        rng = random.Random(n * 41)
        for _ in range(15):
            tt = TruthTable.random(n, rng)
            neg = ~tt
            assert sig.osv0(neg) == sig.osv1(tt)
            assert sig.osv1(neg) == sig.osv0(tt)
            assert sig.osdv0(neg) == sig.osdv1(tt)
            assert sig.osdv1(neg) == sig.osdv0(tt)
            assert sig.osv(neg) == sig.osv(tt)
            assert sig.osdv(neg) == sig.osdv(tt)
            assert sig.oiv(neg) == sig.oiv(tt)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_property_npn_equivalents_share_invariant_vectors(n, rng):
    """Full NPN transforms preserve the output-polarity-free vectors."""
    tt = TruthTable(n, rng.getrandbits(1 << n))
    image = tt.apply(random_transform(n, rng))
    assert sig.oiv(image) == sig.oiv(tt)
    assert sig.osv(image) == sig.osv(tt)
    assert sig.osdv(image) == sig.osdv(tt)
    assert {sig.osv0(image), sig.osv1(image)} == {sig.osv0(tt), sig.osv1(tt)}
