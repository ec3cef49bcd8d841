"""Property tests: every ``TransformColumns`` operation against its
``NPNTransform`` reference, row by row.

Batches mix arities n = 0..8, so the identity padding beyond each row's
arity is exercised by every operation; the decode and the pairwise
apply are checked against truth-table operations that share no code
with the transform algebra.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.core.transforms import NPNTransform, TransformColumns
from repro.kernels import MAX_KERNEL_VARS
from tests.strategies import (
    columns_of,
    npn_transforms,
    transform_lists,
    truth_tables,
)

MIXED = transform_lists(min_n=0, max_n=8)


@given(MIXED)
def test_round_trip_to_npn_transforms(transforms):
    columns = columns_of(transforms)
    assert len(columns) == len(transforms)
    assert list(columns) == transforms
    assert columns.ns.tolist() == [t.n for t in transforms]


@given(MIXED)
def test_inverse_equals_the_reference_row_by_row(transforms):
    inverse = columns_of(transforms).inverse()
    assert list(inverse) == [t.inverse() for t in transforms]
    assert list(inverse.inverse()) == transforms


@given(st.data())
def test_compose_equals_the_reference_row_by_row(data):
    outer = data.draw(MIXED)
    inner = [data.draw(npn_transforms(n=t.n)) for t in outer]
    composed = columns_of(outer).compose(columns_of(inner))
    assert list(composed) == [t.compose(u) for t, u in zip(outer, inner)]


@given(st.data())
def test_compose_with_the_inverse_is_the_identity(data):
    transforms = data.draw(MIXED)
    columns = columns_of(transforms)
    assert all(t.is_identity for t in columns.inverse().compose(columns))


def test_compose_rejects_different_arities():
    a = columns_of([NPNTransform.identity(3)])
    b = columns_of([NPNTransform.identity(4)])
    with pytest.raises(ValueError, match="different arity"):
        a.compose(b)


@given(st.data())
def test_take_and_concatenate_equal_list_operations(data):
    parts = [data.draw(MIXED) for _ in range(data.draw(st.integers(0, 3)))]
    joined = TransformColumns.concatenate([columns_of(p) for p in parts])
    flat = [t for part in parts for t in part]
    assert list(joined) == flat
    rows = data.draw(
        st.lists(st.integers(0, len(flat) - 1), max_size=10)
        if flat
        else st.just([])
    )
    assert list(joined.take(rows)) == [flat[k] for k in rows]


@given(st.data())
def test_decode_equals_permute_then_flip_image_variables(data):
    """Row ``k`` of ``decode_images`` maps the table onto the image that
    permutes it by ``perms[k]`` and then flips the image variables of
    ``image_flips[k]`` (and the output when ``outputs[k]``)."""
    n = data.draw(st.integers(0, 8))
    rows = data.draw(st.integers(0, 6))
    tables = [data.draw(truth_tables(n=n)) for _ in range(rows)]
    perms = [tuple(data.draw(st.permutations(range(n)))) for _ in range(rows)]
    flips = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(rows)]
    outputs = [data.draw(st.integers(0, 1)) for _ in range(rows)]
    decoded = kernels.decode_images(
        np.array(perms, dtype=np.intp).reshape(rows, n), flips, outputs
    )
    assert decoded.ns.tolist() == [n] * rows
    for tt, transform, perm, flip, output in zip(
        tables, decoded, perms, flips, outputs
    ):
        image = tt.permute(perm).flip_inputs(flip)
        assert tt.apply(transform) == (~image if output else image)


@given(st.data())
def test_apply_pairwise_on_padded_rows_equals_truth_table_apply(data):
    """Rows of one arity taken out of a mixed batch keep its wider
    padding; the pairwise gather reads only their own ``n`` columns."""
    transforms = data.draw(transform_lists(min_n=0, max_n=MAX_KERNEL_VARS))
    columns = columns_of(transforms + [data.draw(npn_transforms(n=8))])
    for n in {t.n for t in transforms}:
        rows = [k for k, t in enumerate(transforms) if t.n == n]
        tables = [data.draw(truth_tables(n=n)) for _ in rows]
        images = kernels.apply_pairwise(tables, columns.take(rows), n)
        assert images.tolist() == [
            tt.apply(transforms[k]).bits for tt, k in zip(tables, rows)
        ]


def test_empty_columns():
    empty = TransformColumns.concatenate([])
    assert len(empty) == 0 and list(empty) == []
    assert list(empty.inverse().compose(empty)) == []
    assert kernels.apply_pairwise([], empty, 3).tolist() == []
