"""Differential tests of the word-level canonical-minimum kernel.

``canonical_min`` builds every NP image of a table from its ``n!``
permuted words by ``n`` word-level doublings, and
``canonical_min_transforms`` reduces the same words with ``argmin``.
Both are checked here against the exhaustive scalar oracle
:func:`repro.baselines.exact_enum.exact_npn_canonical` on drawn tables
and their NPN images, parametric over every arity the kernels serve
(n = 0..6).  The edge cases are pinned explicitly: the empty batch,
batch lengths around the chunk size, the constants, and ``n = 6``
tables with bit 63 set (the top of the ``uint64`` shifts).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact_enum import exact_npn_canonical
from repro.core import bitops
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.kernels import ops
from repro.kernels.gather import MAX_KERNEL_VARS, gather_table
from repro.kernels.ops import canonical_min, canonical_min_transforms
from tests.strategies import npn_transforms, truth_table_batches, truth_tables

KERNEL_ARITIES = range(MAX_KERNEL_VARS + 1)

#: The oracle enumerates the whole group in Python (~0.15 s per n = 6
#: table), so the oracle-backed properties draw fewer examples.
ORACLE_EXAMPLES = 25


def chunk_rows(n: int) -> int:
    """Tables per kernel chunk at arity ``n``."""
    return max(1, ops._WORD_BUDGET // gather_table(n).np_group_order)


def assert_transforms_reach_minima(n, ints, minima, transforms):
    assert len(transforms) == len(ints) == len(minima)
    for bits, low, transform in zip(ints, minima.tolist(), transforms):
        assert transform.n == n
        assert transform.apply_table(bits, n) == low
        # The inverse is the witness mapping the form back onto the table.
        assert TruthTable(n, low).apply(transform.inverse()) == TruthTable(
            n, bits
        )


@pytest.mark.parametrize("n", KERNEL_ARITIES)
class TestAgainstExhaustiveOracle:
    @settings(max_examples=ORACLE_EXAMPLES)
    @given(data=st.data())
    def test_table_and_images_share_the_oracle_minimum(self, n, data):
        tt = data.draw(truth_tables(n=n))
        images = [
            tt.apply(data.draw(npn_transforms(n=n)))
            for _ in range(data.draw(st.integers(0, 4)))
        ]
        expected = exact_npn_canonical(tt).representative.bits
        minima = canonical_min([tt] + images)
        assert minima.dtype == np.uint64
        assert minima.tolist() == [expected] * (1 + len(images))

    @given(data=st.data())
    def test_transforms_map_each_table_onto_its_minimum(self, n, data):
        batch = data.draw(truth_table_batches(n=n, max_size=12))
        ints = [tt.bits for tt in batch]
        minima, transforms = canonical_min_transforms(ints, n)
        assert minima.tolist() == canonical_min(ints, n).tolist()
        assert_transforms_reach_minima(n, ints, minima, transforms)

    def test_constants(self, n):
        ints = [0, bitops.table_mask(n)]
        assert canonical_min(ints, n).tolist() == [0, 0]
        minima, transforms = canonical_min_transforms(ints, n)
        assert minima.tolist() == [0, 0]
        assert_transforms_reach_minima(n, ints, minima, transforms)
        assert [t.output_phase for t in transforms] == [0, 1]

    def test_empty_batch(self, n):
        assert canonical_min([], n).shape == (0,)
        minima, transforms = canonical_min_transforms([], n)
        assert minima.shape == (0,) and len(transforms) == 0


@pytest.mark.parametrize("n", (4, 5, 6))
@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_batches_around_the_chunk_size(n, offset):
    rng = np.random.default_rng(100 * n + offset)
    mask = bitops.table_mask(n)
    length = chunk_rows(n) + offset
    ints = [int(x) & mask for x in rng.integers(0, 1 << 63, size=length)]
    alone = [int(canonical_min([bits], n)[0]) for bits in ints]
    assert canonical_min(ints, n).tolist() == alone
    minima, transforms = canonical_min_transforms(ints, n)
    assert minima.tolist() == alone
    assert_transforms_reach_minima(n, ints, minima, transforms)


@settings(max_examples=10)
@given(low=st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_n6_tables_with_the_top_bit_set(low):
    bits = low | (1 << 63)
    expected = exact_npn_canonical(TruthTable(6, bits)).representative.bits
    assert int(canonical_min([bits], 6)[0]) == expected
    minima, transforms = canonical_min_transforms([bits], 6)
    assert int(minima[0]) == expected
    assert_transforms_reach_minima(6, [bits], minima, transforms)


def test_top_bit_only_and_its_complement():
    ints = [1 << 63, bitops.table_mask(6) ^ (1 << 63)]
    expected = [exact_npn_canonical(TruthTable(6, b)).representative.bits
                for b in ints]
    assert canonical_min(ints, 6).tolist() == expected
    minima, transforms = canonical_min_transforms(ints, 6)
    assert_transforms_reach_minima(6, ints, minima, transforms)


def test_transforms_accept_truth_tables_and_check_arity():
    tt = TruthTable.majority(3)
    minima, (transform,) = canonical_min_transforms([tt])
    assert tt.apply(transform).bits == int(minima[0])
    with pytest.raises(ValueError):
        canonical_min_transforms([tt.bits])
    with pytest.raises(ValueError):
        canonical_min_transforms([tt], n=4)


@pytest.mark.parametrize("n", range(1, MAX_KERNEL_VARS + 1))
@settings(max_examples=10)
@given(data=st.data())
def test_flip_input_negates_one_input_per_word(n, data):
    tables = data.draw(truth_table_batches(n, max_size=8))
    words = np.array([t.bits for t in tables], dtype=np.uint64)
    var = np.array(
        data.draw(st.lists(st.integers(0, n - 1), min_size=len(tables),
                           max_size=len(tables))),
        dtype=np.intp,
    )
    flipped = ops.flip_input(words, var, n).tolist()
    for tt, v, image in zip(tables, var.tolist(), flipped):
        flip = NPNTransform(tuple(range(n)), 1 << v, 0)
        assert image == tt.apply(flip).bits
        assert int(ops.flip_input(np.uint64(tt.bits), v, n)) == image


# ----------------------------------------------------------------------
# Pinned witnesses
# ----------------------------------------------------------------------

#: Circuits whose distinct cut functions join the pinned digest: the
#: ``cuts-library`` perfbench suite, heavily symmetric, so many of their
#: rows reach the minimum in several columns and the argmin tie rule is
#: what picks the witness.
PINNED_CIRCUITS = ("adder", "arbiter", "cla", "comparator", "max", "parity",
                   "priority", "subtractor")

#: sha256 of every ``(n, minimum, perm, input_phase, output_phase)`` row of
#: ``canonical_min_transforms`` on 2,000 seeded random tables per arity
#: n = 3..6 and every distinct n = 4..6 cut function of
#: :data:`PINNED_CIRCUITS`, recorded on the bit-gather kernel this one
#: replaced.  Served and learned witnesses depend on the exact column
#: the kernel picks, so it must not move.
PINNED_WITNESS_DIGEST = (
    "77c3120bfa238c454013c62c8333bcf7655dc83545091a0447c8a77576403666"
)


def pinned_batches() -> dict[int, list[int]]:
    from repro.aig.cuts import iter_cut_functions
    from repro.workloads.epfl import epfl_like_suite

    batches = {}
    for n in range(3, MAX_KERNEL_VARS + 1):
        rng = np.random.default_rng(7000 + n)
        mask = bitops.table_mask(n)
        batches[n] = [
            int(x) & mask
            for x in rng.integers(0, 1 << 63, size=2000, dtype=np.int64)
        ]
    suite = epfl_like_suite()
    cut_functions = {
        (table.n, table.bits)
        for name in PINNED_CIRCUITS
        for _, _, table in iter_cut_functions(suite[name], (4, 5, 6))
    }
    for n, bits in sorted(cut_functions):
        batches[n].append(bits)
    return batches


def witness_digest(batches: dict[int, list[int]]) -> str:
    digest = hashlib.sha256()
    for n, ints in sorted(batches.items()):
        minima, transforms = canonical_min_transforms(ints, n)
        for low, t in zip(minima.tolist(), transforms):
            digest.update(
                f"{n}:{low}:{t.perm}:{t.input_phase}:{t.output_phase}\n"
                .encode()
            )
    return digest.hexdigest()


def test_witnesses_are_pinned():
    assert witness_digest(pinned_batches()) == PINNED_WITNESS_DIGEST


# ----------------------------------------------------------------------
# Parity with the bit-gather construction
# ----------------------------------------------------------------------


def gather_image_words(gt, ints):
    """The reference construction of ``_np_image_words``: gather the
    ``n!`` permuted words bit by bit, then double the columns once per
    input with ``np.concatenate``."""
    n = gt.n
    chunk = max(1, ops._WORD_BUDGET // gt.np_group_order)
    for start in range(0, len(ints), chunk):
        bits = ops.bit_matrix(n, ints[start : start + chunk])
        words = ops.pack_rows(bits[:, gt.perm_maps])
        for i in range(n):
            words = np.concatenate([words, ops.flip_input(words, i, n)], axis=1)
        yield start, words


def assert_image_words_match_the_gather(n, ints):
    gt = gather_table(n)
    # Each yielded chunk is overwritten by the next, so copy it.
    swapped = [(start, words.copy())
               for start, words in ops._np_image_words(gt, ints)]
    gathered = list(gather_image_words(gt, ints))
    assert [start for start, _ in swapped] == [s for s, _ in gathered]
    for (_, words), (_, expected) in zip(swapped, gathered):
        assert words.dtype == expected.dtype == np.uint64
        assert words.shape == expected.shape
        assert words.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(4))
def test_image_words_match_the_gather_for_every_small_function(n):
    assert_image_words_match_the_gather(n, list(range(1 << (1 << n))))


@pytest.mark.parametrize("n", (4, 5, 6))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_image_words_match_the_gather_on_drawn_batches(n, data):
    rows = chunk_rows(n)
    size = data.draw(st.integers(0, 2 * rows + 1))
    ints = data.draw(st.lists(
        st.integers(0, bitops.table_mask(n)), min_size=size, max_size=size
    ))
    assert_image_words_match_the_gather(n, ints)


@pytest.mark.parametrize("n", KERNEL_ARITIES)
def test_swap_chain_order_is_a_bijection_onto_the_perms(n):
    gt = gather_table(n)
    order = ops._swap_chain_order(n)
    assert sorted(order.tolist()) == list(range(gt.num_perms))
    # Permuting each projection x_i by perms[p] gives x_{perms[p][i]}.
    projections = np.array(
        [bitops.var_mask(n, i) for i in range(n)], dtype=np.uint64
    )
    words = ops._swap_chain_words(n, projections)[:, order]
    for p, perm in enumerate(gt.perms.tolist()):
        assert words[:, p].tolist() == [
            bitops.var_mask(n, v) for v in perm
        ]
