"""Parity suite: every kernel primitive against its scalar oracle.

The acceptance contract of the kernels layer: ``apply_pairwise``,
``orbit`` and ``canonical_min`` agree with the
scalar :meth:`NPNTransform.apply` / :func:`exact_npn_canonical` for
**all** transforms at ``n <= 3``, and under seeded or hypothesis fuzz
up to ``n = 6``; the batched key rows agree with the matcher's scalar
``variable_keys`` everywhere, and their integer histograms with the
float one-hot contraction they replaced.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.baselines.exact_enum import exact_npn_canonical
from repro.baselines.matcher import variable_keys
from repro.core.transforms import NPNTransform, all_transforms, random_transform
from repro.core.truth_table import TruthTable
from repro.kernels import keys as keys_module
from tests.strategies import (
    columns_of,
    npn_transforms,
    truth_table_batches,
    truth_tables,
)


def _sample_tables(n, count, seed):
    rng = random.Random(seed)
    structured = [
        TruthTable.constant(n, 0),
        TruthTable.constant(n, 1),
    ]
    if n >= 1:
        structured.append(TruthTable.projection(n, 0))
    if n % 2 == 1:
        structured.append(TruthTable.majority(n))
    randoms = [TruthTable.random(n, rng) for _ in range(count)]
    return structured + randoms


class TestApplyPairwise:
    @given(data=st.data())
    def test_each_row_equals_its_scalar_apply(self, data):
        n = data.draw(st.integers(0, 6))
        tables = data.draw(st.lists(truth_tables(n=n), max_size=12))
        transforms = [data.draw(npn_transforms(n=n)) for _ in tables]
        images = kernels.apply_pairwise(tables, columns_of(transforms), n)
        assert images.dtype == np.uint64 and images.shape == (len(tables),)
        assert images.tolist() == [
            tt.apply(t).bits for tt, t in zip(tables, transforms)
        ]

    def test_every_transform_of_one_table_at_n3(self):
        tt = TruthTable(3, 0b11101000)
        transforms = list(all_transforms(3))
        images = kernels.apply_pairwise(
            [tt.bits] * len(transforms), columns_of(transforms), 3
        )
        assert images.tolist() == [tt.apply(t).bits for t in transforms]

    def test_lengths_and_arities_must_agree(self):
        identity = columns_of([NPNTransform.identity(2)])
        with pytest.raises(ValueError, match="2 tables but 1 transforms"):
            kernels.apply_pairwise([1, 2], identity, 2)
        with pytest.raises(ValueError, match="arity 2 != table arity 3"):
            kernels.apply_pairwise([7], identity, 3)
        assert kernels.apply_pairwise([], columns_of([]), 4).shape == (0,)

    def test_batch_checks(self):
        with pytest.raises(ValueError, match="pass n"):
            kernels.apply_pairwise([5, 9], columns_of([]))
        with pytest.raises(ValueError, match="mixed arities"):
            kernels.apply_pairwise(
                [TruthTable(2, 3), TruthTable(3, 3)], columns_of([])
            )
        with pytest.raises(ValueError, match="n <= 6"):
            kernels.apply_pairwise(
                [TruthTable(7, 1)], columns_of([NPNTransform.identity(7)])
            )


class TestOrbit:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_orbit_matches_all_transforms_order(self, n):
        """The orbit enumerates images in all_transforms order."""
        for tt in _sample_tables(n, 4, seed=10 + n):
            reference = np.array(
                [tt.apply(t).bits for t in all_transforms(n)],
                dtype=np.uint64,
            )
            assert np.array_equal(kernels.orbit(tt), reference)

    @pytest.mark.parametrize("n", [5, 6])
    def test_orbit_fuzz_spot_checks(self, n):
        """Full order parity is n! * 2^(n+1) entries — check structure
        plus randomly sampled positions against the scalar apply."""
        rng = random.Random(20 + n)
        tt = TruthTable.random(n, rng)
        orbit = kernels.orbit(tt)
        transforms = list(all_transforms(n))
        assert len(orbit) == len(transforms)
        for position in rng.sample(range(len(transforms)), 50):
            assert int(orbit[position]) == tt.apply(transforms[position]).bits

    def test_chunks_concatenate_to_orbit(self):
        tt = TruthTable.random(5, random.Random(3))
        chunks = list(kernels.orbit_chunks(tt))
        assert len(chunks) >= 2  # streaming actually streams at n = 5
        assert np.array_equal(np.concatenate(chunks), kernels.orbit(tt))

    def test_np_only_orbit(self):
        tt = TruthTable.random(3, random.Random(4))
        np_orbit = kernels.orbit(tt, include_output=False)
        reference = np.array(
            [tt.apply(t).bits for t in all_transforms(3, include_output=False)],
            dtype=np.uint64,
        )
        assert np.array_equal(np_orbit, reference)

    def test_orbit_contains_canonical_minimum(self):
        tt = TruthTable.random(6, random.Random(5))
        assert int(kernels.orbit(tt).min()) == int(
            kernels.canonical_min([tt])[0]
        )


class TestCanonicalMin:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_exhaustive_small_n(self, n):
        """Every table of the arity (256 at n = 3) vs the enum oracle."""
        tables = [TruthTable(n, bits) for bits in range(1 << (1 << n))]
        minima = kernels.canonical_min(tables)
        for tt, bits in zip(tables, minima):
            assert int(bits) == exact_npn_canonical(tt).representative.bits

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_seeded_fuzz(self, n):
        rng = random.Random(30 + n)
        count = {4: 64, 5: 24, 6: 8}[n]
        tables = [TruthTable.random(n, rng) for _ in range(count)]
        minima = kernels.canonical_min(tables)
        for tt, bits in zip(tables, minima):
            assert int(bits) == exact_npn_canonical(tt).representative.bits

    def test_invariant_over_orbit(self):
        rng = random.Random(40)
        tt = TruthTable.random(6, rng)
        images = [tt.apply(random_transform(6, rng)) for _ in range(12)]
        minima = set(kernels.canonical_min([tt] + images).tolist())
        assert len(minima) == 1


class TestKeyMatrices:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_row_equality_iff_scalar_key_equality(self, n):
        """Key rows are an exact encoding of the matcher's variable keys:
        two variables (of possibly different tables) compare equal in
        row form iff their scalar keys compare equal."""
        rng = random.Random(50 + n)
        tables = _sample_tables(n, 20, seed=50 + n)
        matrices = kernels.key_matrices(n, [t.bits for t in tables])
        rows = matrices.keys
        scalar = [variable_keys(tt) for tt in tables]
        for _ in range(200):
            a, b = rng.randrange(len(tables)), rng.randrange(len(tables))
            if n == 0:
                continue
            i, v = rng.randrange(n), rng.randrange(n)
            assert (scalar[a][i] == scalar[b][v]) == bool(
                (rows[a, i] == rows[b, v]).all()
            )

    def test_empty_batch(self):
        """An empty batch yields empty matrices, not a concat crash."""
        matrices = kernels.key_matrices(4, [])
        assert matrices.counts.shape == (0,)
        assert matrices.keys.shape == (0, 4, kernels.KEY_WIDTH)
        assert matrices.cofactors.shape == (0, 4, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_and_cofactors(self, n):
        tables = _sample_tables(n, 15, seed=60 + n)
        matrices = kernels.key_matrices(n, [t.bits for t in tables])
        for b, tt in enumerate(tables):
            assert int(matrices.counts[b]) == tt.count_ones()
            for i in range(n):
                assert tuple(matrices.cofactors[b, i]) == (
                    tt.cofactor_count(i, 0),
                    tt.cofactor_count(i, 1),
                )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complement_matches_recomputation(self, n):
        """Derived ~f encodings equal the encodings computed from ~f."""
        tables = _sample_tables(n, 15, seed=70 + n)
        matrices = kernels.key_matrices(n, [t.bits for t in tables])
        derived = kernels.complement_key_matrices(matrices, n)
        recomputed = kernels.key_matrices(n, [(~t).bits for t in tables])
        assert np.array_equal(derived.counts, recomputed.counts)
        assert np.array_equal(derived.keys, recomputed.keys)
        assert np.array_equal(derived.cofactors, recomputed.cofactors)

    def test_np_invariance_of_rows(self):
        """Key row multisets are NP invariants, like the scalar keys."""
        rng = random.Random(80)
        for _ in range(10):
            tt = TruthTable.random(5, rng)
            t = random_transform(5, rng)
            image = tt.apply(NPNTransform(t.perm, t.input_phase, 0))
            matrices = kernels.key_matrices(5, [tt.bits, image.bits])
            original = sorted(map(tuple, matrices.keys[0].tolist()))
            transformed = sorted(map(tuple, matrices.keys[1].tolist()))
            assert original == transformed


class TestBitMatrixRoundTrip:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_pack_unpack(self, n):
        rng = random.Random(90 + n)
        ints = [rng.getrandbits(1 << n) for _ in range(25)]
        bits = kernels.bit_matrix(n, ints)
        assert bits.shape == (25, 1 << n)
        packed = kernels.pack_rows(bits)
        assert packed.tolist() == ints


def _one_hot_key_matrices(n, ints):
    """The float32 one-hot + ``tensordot`` key construction that the
    integer ``bincount`` histograms replaced — the reference they must
    equal cell for cell."""
    size = 1 << n
    bits = kernels.bit_matrix(n, ints)
    batch = bits.shape[0]
    counts = bits.sum(axis=1, dtype=np.int64)
    keys = np.zeros((batch, n, kernels.KEY_WIDTH), dtype=np.int64)
    cofactors = np.zeros((batch, n, 2), dtype=np.int64)
    if n == 0:
        return counts, keys, cofactors
    minterms = np.arange(size)
    varbits = ((minterms[None, :] >> np.arange(n)[:, None]) & 1).astype(
        np.int64
    )
    profile = np.zeros((batch, size), dtype=np.int64)
    for i in range(n):
        sens = bits ^ bits[:, minterms ^ (1 << i)]
        keys[:, i, 0] = sens.sum(axis=1, dtype=np.int64) >> 1
        profile += sens
    ones_side = bits.astype(np.int64) @ varbits.T
    neg_side = counts[:, None] - ones_side
    cofactors[:, :, 0] = neg_side
    cofactors[:, :, 1] = ones_side
    np.minimum(neg_side, ones_side, out=keys[:, :, 1])
    np.maximum(neg_side, ones_side, out=keys[:, :, 2])
    onehot = (profile[:, :, None] == np.arange(n + 1)).astype(np.float32)
    hist_pos = (
        np.tensordot(onehot, varbits.astype(np.float32), axes=([1], [1]))
        .astype(np.int64)
        .transpose(0, 2, 1)
    )
    hist_neg = onehot.sum(axis=1, dtype=np.int64)[:, None, :] - hist_pos
    shifts = (7 * np.arange(n, -1, -1)).astype(np.int64)
    packed_pos = (hist_pos << shifts).sum(axis=2)
    packed_neg = (hist_neg << shifts).sum(axis=2)
    np.minimum(packed_neg, packed_pos, out=keys[:, :, 3])
    np.maximum(packed_neg, packed_pos, out=keys[:, :, 4])
    return counts, keys, cofactors


def _assert_keys_equal_one_hot(n, ints):
    matrices = kernels.key_matrices(n, ints)
    for got, want in zip(matrices, _one_hot_key_matrices(n, ints)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestIntegerHistograms:
    @pytest.mark.parametrize("n", range(0, 4))
    def test_every_table_at_small_n(self, n):
        _assert_keys_equal_one_hot(n, list(range(1 << (1 << n))))

    @given(tables=truth_table_batches(min_n=4, max_n=6, min_size=1))
    def test_drawn_batches(self, tables):
        _assert_keys_equal_one_hot(tables[0].n, [t.bits for t in tables])

    @given(tables=truth_table_batches(min_n=4, max_n=6, min_size=4))
    def test_drawn_batches_across_chunk_boundaries(self, tables):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(keys_module, "_KEYS_CHUNK", 3)
            _assert_keys_equal_one_hot(tables[0].n, [t.bits for t in tables])
