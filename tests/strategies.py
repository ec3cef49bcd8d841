"""Hypothesis strategies for truth tables and NPN transforms.

One strategy module, parametric over the arity, reused by every property
suite — the same write-once-template-over-n idiom cairo-integer-types
uses for BIT_LENGTH.  Each strategy takes either a fixed ``n`` or an
``(min_n, max_n)`` range to draw the arity itself, so a suite written as

    @given(data=st.data())
    def test_...(data):
        tt = data.draw(truth_tables())

covers n = 3..6 with shrinking: a failing example minimises first the
arity, then the table bits, then the transform — the smallest
counterexample instead of whichever seeded draw happened to trip.

Strategies:

* :func:`arities` — variable counts in a range;
* :func:`truth_tables` — :class:`TruthTable` values, uniform over the
  ``2^(2^n)`` functions of the drawn arity;
* :func:`truth_table_batches` — same-arity lists (packed-engine input);
* :func:`npn_transforms` — :class:`NPNTransform` group elements;
* :func:`transform_lists` — lists of them, each of its own drawn arity
  (the mixed-arity batches :class:`TransformColumns` carries), and
  :func:`columns_of`, the columns holding such a list;
* :func:`tables_with_transforms` — ``(table, [transforms...])`` tuples
  sharing one arity, the shape the group-law and witness suites consume;
* :func:`npn_orbits` — ``(seed table, [NPN images...])`` built through
  truth-table primitives only (never the transform algebra), the
  never-split invariant's input.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.transforms import NPNTransform, TransformColumns
from repro.core.truth_table import TruthTable

__all__ = [
    "MIN_FUZZ_VARS",
    "MAX_FUZZ_VARS",
    "arities",
    "truth_tables",
    "truth_table_batches",
    "npn_transforms",
    "transform_lists",
    "columns_of",
    "tables_with_transforms",
    "npn_orbits",
]

#: Default arity range of the fuzz suites: n=3 is the smallest arity
#: with a non-trivial permutation group *and* input-phase interplay,
#: n=6 the largest single-uint64 table the gather kernels cover.
MIN_FUZZ_VARS = 3
MAX_FUZZ_VARS = 6


def arities(min_n: int = MIN_FUZZ_VARS, max_n: int = MAX_FUZZ_VARS):
    """Variable counts drawn from ``[min_n, max_n]`` (shrinks downward)."""
    return st.integers(min_value=min_n, max_value=max_n)


def _resolve_arity(draw, n, min_n, max_n) -> int:
    return draw(arities(min_n, max_n)) if n is None else n


@st.composite
def truth_tables(
    draw,
    n: int | None = None,
    min_n: int = MIN_FUZZ_VARS,
    max_n: int = MAX_FUZZ_VARS,
) -> TruthTable:
    """A uniform ``n``-variable function (arity drawn when ``n`` is None)."""
    arity = _resolve_arity(draw, n, min_n, max_n)
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << arity)) - 1))
    return TruthTable(arity, bits)


@st.composite
def truth_table_batches(
    draw,
    n: int | None = None,
    min_n: int = MIN_FUZZ_VARS,
    max_n: int = MAX_FUZZ_VARS,
    min_size: int = 0,
    max_size: int = 16,
) -> list[TruthTable]:
    """A same-arity list of tables — the packed engines' batch shape."""
    arity = _resolve_arity(draw, n, min_n, max_n)
    return draw(
        st.lists(truth_tables(n=arity), min_size=min_size, max_size=max_size)
    )


@st.composite
def npn_transforms(
    draw,
    n: int | None = None,
    min_n: int = MIN_FUZZ_VARS,
    max_n: int = MAX_FUZZ_VARS,
) -> NPNTransform:
    """One element of the NPN group on the (possibly drawn) arity."""
    arity = _resolve_arity(draw, n, min_n, max_n)
    perm = tuple(draw(st.permutations(range(arity))))
    input_phase = draw(st.integers(min_value=0, max_value=(1 << arity) - 1))
    output_phase = draw(st.integers(min_value=0, max_value=1))
    return NPNTransform(perm, input_phase, output_phase)


@st.composite
def transform_lists(
    draw,
    min_n: int = MIN_FUZZ_VARS,
    max_n: int = MAX_FUZZ_VARS,
    max_size: int = 12,
) -> list[NPNTransform]:
    """Transforms each drawing its own arity from ``[min_n, max_n]``."""
    return draw(
        st.lists(npn_transforms(min_n=min_n, max_n=max_n), max_size=max_size)
    )


def columns_of(transforms) -> TransformColumns:
    """The :class:`TransformColumns` whose rows are ``transforms``."""
    return TransformColumns.concatenate(
        [
            TransformColumns.of_arity(
                t.n, [t.perm], [t.input_phase], [t.output_phase]
            )
            for t in transforms
        ]
    )


@st.composite
def tables_with_transforms(
    draw,
    transforms: int = 1,
    n: int | None = None,
    min_n: int = MIN_FUZZ_VARS,
    max_n: int = MAX_FUZZ_VARS,
) -> tuple[TruthTable, list[NPNTransform]]:
    """``(table, [transform, ...])`` all sharing one drawn arity."""
    arity = _resolve_arity(draw, n, min_n, max_n)
    table = draw(truth_tables(n=arity))
    return table, [draw(npn_transforms(n=arity)) for _ in range(transforms)]


@st.composite
def npn_orbits(
    draw,
    n: int | None = None,
    min_n: int = MIN_FUZZ_VARS,
    max_n: int = MAX_FUZZ_VARS,
    min_images: int = 1,
    max_images: int = 5,
) -> tuple[TruthTable, list[TruthTable]]:
    """A seed function plus NPN images built from table primitives only.

    Images apply input negations, an input permutation, and optionally
    the output complement *directly* through :class:`TruthTable`
    methods — deliberately bypassing :class:`NPNTransform` — so a bug in
    the transform algebra cannot mask a signature bug, or vice versa.
    """
    arity = _resolve_arity(draw, n, min_n, max_n)
    seed_function = draw(truth_tables(n=arity))
    images = []
    for _ in range(draw(st.integers(min_images, max_images))):
        image = seed_function.flip_inputs(
            draw(st.integers(0, (1 << arity) - 1))
        )
        image = image.permute(tuple(draw(st.permutations(range(arity)))))
        if draw(st.booleans()):
            image = ~image
        images.append(image)
    return seed_function, images
