"""Tests for spectral (Walsh) signatures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.spectral.signatures import spectral_signature


class TestSpectralSignature:
    def test_known_values(self):
        maj = TruthTable.majority(3)
        assert spectral_signature(maj) == (0, 0, 0, 0, 4, 4, 4, 4)
        xor3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)
        # XOR is a single Walsh character: one coefficient of magnitude 8.
        assert spectral_signature(xor3) == (0,) * 7 + (8,)

    def test_npn_invariance(self):
        rng = random.Random(0)
        for n in range(1, 6):
            for _ in range(10):
                tt = TruthTable.random(n, rng)
                image = tt.apply(random_transform(n, rng))
                assert spectral_signature(image) == spectral_signature(tt)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_property_spectral_never_splits(n, rng):
    tt = TruthTable(n, rng.getrandbits(1 << n))
    image = tt.apply(random_transform(n, rng))
    assert spectral_signature(tt) == spectral_signature(image)
