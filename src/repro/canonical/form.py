"""The exact canonical form: orbit minimum at every arity.

One rule everywhere: the canonical representative of ``f`` is the
lexicographically smallest truth table in ``f``'s full NPN orbit — the
same value :func:`repro.baselines.exact_enum.exact_npn_canonical`
computes.  This module is the only place that decides *how* it is
computed, and callers hand it batches of any arity mix:

* ``n <= 6`` — one batched :func:`repro.kernels.canonical_min` call per
  arity (byte-identical to the exhaustive enumeration: the ``n!``
  permuted words are gathered, the input phases added by word-level
  doublings); :func:`repro.kernels.canonical_min_transforms` reduces
  the same words with ``argmin`` and also returns the transform
  reaching the form;
* ``n > 6`` — :func:`influence_canonical_scalar`, an exact search that
  walks permutations in the influence-sorted candidate order (strong
  incumbent early) and bounds the per-permutation phase enumeration by
  the incumbent's most-significant 64-bit word, so almost every phase
  assignment is rejected from its top word alone.  Its argmin is
  decoded into a transform exactly like a kernel column, and each
  distinct table of the batch is searched once.

So :func:`canonical_forms_with_transforms` yields a transform onto the
form at every arity, and :func:`checked_witnesses` inverts a batch of
them into the witnesses (checked with one pairwise gather per arity)
that learn-on-miss and the library's match path answer with.

Class ids are a pure function of the orbit: ``n{n}-c{hex}`` where the
hex *is* the canonical representative (fixed width, MSB first).  Two
libraries built independently therefore mint identical ids for the same
orbit — the property signature-digest ids could not offer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat

import numpy as np

from repro import obs
from repro.canonical.influence import candidate_permutations, influence_vector
from repro.core import bitops
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.kernels.gather import MAX_KERNEL_VARS
from repro.kernels.ops import (
    apply_pairwise,
    canonical_min,
    canonical_min_transforms,
    image_transform,
    pack_rows,
)

__all__ = [
    "canonical_form",
    "canonical_forms",
    "canonical_forms_with_transforms",
    "checked_witness",
    "checked_witnesses",
    "influence_canonical_scalar",
    "canonical_class_id",
]

#: How hard the incumbent-bounded scalar search worked, by step kind:
#: ``permutations`` tried, ``phase_candidates`` screened by top word,
#: ``phases_materialized`` fully built — the pruned fraction is
#: 1 - materialized/candidates.
_SEARCH_STEPS = obs.registry().counter(
    "repro_canonical_search_steps_total",
    "Influence-aided scalar canonical search work, by step kind.",
    labels=("kind",),
)

#: Soft cap on uint8 gather entries one scalar phase block materialises.
_SCALAR_ENTRY_BUDGET = 1 << 22


def canonical_form(tt: TruthTable) -> TruthTable:
    """Exact canonical representative (orbit minimum) of one function."""
    return canonical_forms([tt])[0]


def canonical_forms(tables: Iterable, n: int | None = None) -> list[TruthTable]:
    """Exact canonical representatives of a batch, in input order.

    Tables may mix arities: each arity up to ``MAX_KERNEL_VARS`` is one
    batched kernel call, and larger ones take the scalar search once per
    distinct table.  Raw integers are tables of arity ``n``.
    """
    return [form for form, _ in _canonicalize(tables, n, transforms=False)]


def canonical_forms_with_transforms(
    tables: Iterable[TruthTable],
) -> list[tuple[TruthTable, NPNTransform]]:
    """``(canonical form, transform reaching it)`` of each table, in input order.

    Batched like :func:`canonical_forms`: the kernel's argmin transform
    up to ``MAX_KERNEL_VARS``, the scalar search's above, so
    ``table.apply(transform) == form`` at every arity.
    :func:`checked_witness` turns one into the witness that maps the
    form back onto its table, so callers pay for it only where they
    need it.
    """
    return _canonicalize(tables, None, transforms=True)


def _canonicalize(tables: Iterable, n: int | None, transforms: bool) -> list:
    """``(form, transform or None)`` per table: the one arity dispatch."""
    rows: list[tuple[int, int]] = []
    for item in tables:
        if isinstance(item, TruthTable):
            rows.append((item.n, item.bits))
        elif n is None:
            raise ValueError("pass n when tables are raw integers")
        else:
            rows.append((n, int(item)))
    by_arity: dict[int, list[int]] = {}
    for index, (arity, _) in enumerate(rows):
        by_arity.setdefault(arity, []).append(index)
    out: list = [None] * len(rows)
    for arity, indices in by_arity.items():
        ints = [rows[i][1] for i in indices]
        if arity > MAX_KERNEL_VARS:
            searched: dict[int, tuple[int, NPNTransform]] = {}
            for bits in ints:
                if bits not in searched:
                    searched[bits] = _influence_search(TruthTable(arity, bits))
            results = [searched[bits] for bits in ints]
        elif transforms:
            minima, found = canonical_min_transforms(ints, arity)
            results = zip(minima.tolist(), found)
        else:
            results = zip(canonical_min(ints, arity).tolist(), repeat(None))
        for index, (low, transform) in zip(indices, results):
            out[index] = (TruthTable(arity, low), transform)
    return out


def checked_witness(
    form: TruthTable, transform: NPNTransform, table: TruthTable
) -> NPNTransform:
    """The inverse of ``transform``, checked to map ``form`` onto ``table``.

    One row of :func:`checked_witnesses`; a failure is a canonicalizer
    bug, so it raises ``RuntimeError`` rather than return a wrong
    witness.
    """
    return checked_witnesses([(form, transform)], [table])[0]


def checked_witnesses(
    forms: Sequence[tuple[TruthTable, NPNTransform]],
    tables: Sequence[TruthTable],
) -> list[NPNTransform]:
    """Per row, the inverse of the transform, checked to map the form
    onto its table.

    ``forms[k]`` is ``(form, transform)`` with ``tables[k].apply(
    transform) == form``, as :func:`canonical_forms_with_transforms`
    returns them.  The witnesses of each arity up to ``MAX_KERNEL_VARS``
    are checked in one :func:`~repro.kernels.ops.apply_pairwise` gather,
    larger ones with one scalar apply each.  Any failure is a
    canonicalizer bug: it raises ``RuntimeError`` before anything is
    returned.
    """
    witnesses = [transform.inverse() for _, transform in forms]
    by_arity: dict[int, list[int]] = {}
    for k, (form, _) in enumerate(forms):
        by_arity.setdefault(form.n, []).append(k)
    for n, rows in by_arity.items():
        if n > MAX_KERNEL_VARS:
            images = [forms[k][0].apply(witnesses[k]).bits for k in rows]
        else:
            images = apply_pairwise(
                [forms[k][0].bits for k in rows],
                [witnesses[k] for k in rows],
                n,
            ).tolist()
        for k, image in zip(rows, images):
            table = tables[k]
            if table.n != n or image != table.bits:
                form, transform = forms[k]
                raise RuntimeError(
                    f"canonicalizer bug: transform {transform.as_dict()} does "
                    f"not map {table!r} onto its canonical form {form!r}"
                )
    return witnesses


def influence_canonical_scalar(tt: TruthTable) -> TruthTable:
    """Exact orbit minimum by influence-ordered, incumbent-bounded search.

    Enumerates both output phases and all ``n!`` permutations — in the
    :func:`~repro.canonical.influence.candidate_permutations` order — and
    for each, all ``2^n`` input-phase assignments as one numpy gather.
    For ``n > 6`` only the most-significant 64-bit word of every phase
    image is packed first; phases whose top word already exceeds the
    incumbent's are discarded without materialising the full table
    (sound: the top word is the most-significant lexicographic prefix).

    Works at any arity — small ``n`` exercise the same code in tests —
    and is byte-identical to ``exact_npn_canonical``.  Its work is
    counted in ``repro_canonical_search_steps_total{kind}``.
    """
    return TruthTable(tt.n, _influence_search(tt)[0])


def _influence_search(tt: TruthTable) -> tuple[int, NPNTransform]:
    """The orbit minimum's bits and the transform reaching it.

    The argmin image is ``permute(tt, perm)`` with the image variables
    of ``mask`` flipped (and the output negated for output phase 1),
    so it decodes exactly like a kernel column.
    """
    n = tt.n
    if n == 0:
        return 0, NPNTransform((), 0, tt.bits)  # orbit of a constant is {f, ~f}
    size = 1 << n
    perms = candidate_permutations(influence_vector(tt))
    # Every orbit holds a table below the all-ones mask (f or ~f), so
    # the strict ``<`` below always records an argmin.
    best = bitops.table_mask(n)
    argmin = None
    mask_chunk = max(1, _SCALAR_ENTRY_BUDGET // size)
    all_masks = np.arange(size, dtype=np.intp)
    minterms = all_masks[None, :]
    candidates = materialized = 0
    for output_phase in (0, 1):
        base = tt.bits if output_phase == 0 else bitops.flip_output(tt.bits, n)
        for perm in perms:
            permuted = bitops.permute_inputs(base, n, perm)
            raw = permuted.to_bytes(max(1, size // 8), "little")
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8), bitorder="little"
            )[:size]
            for start in range(0, size, mask_chunk):
                masks = all_masks[start : start + mask_chunk]
                candidates += len(masks)
                # images[m, x] = permuted[x ^ m] == flip_inputs(permuted, m)
                images = bits[masks[:, None] ^ minterms]
                if size <= 64:
                    materialized += len(masks)
                    packed = pack_rows(images)
                    row = int(packed.argmin())
                    if int(packed[row]) < best:
                        best = int(packed[row])
                        argmin = (perm, int(masks[row]), output_phase)
                    continue
                msb_first = images[:, ::-1]
                top = (
                    np.ascontiguousarray(
                        np.packbits(msb_first[:, :64], axis=1, bitorder="big")
                    )
                    .view(">u8")
                    .ravel()
                )
                survivors = np.nonzero(top <= np.uint64(best >> (size - 64)))[0]
                for row in survivors:
                    materialized += 1
                    value = int.from_bytes(
                        np.packbits(msb_first[row], bitorder="big").tobytes(),
                        "big",
                    )
                    if value < best:
                        best = value
                        argmin = (perm, int(masks[row]), output_phase)
    _SEARCH_STEPS.inc(2 * len(perms), kind="permutations")
    _SEARCH_STEPS.inc(candidates, kind="phase_candidates")
    _SEARCH_STEPS.inc(materialized, kind="phases_materialized")
    return best, image_transform(*argmin)


def canonical_class_id(rep: TruthTable) -> str:
    """``n{n}-c{hex}`` — the id *is* the canonical representative.

    Injective by construction (``to_hex`` is fixed-width, MSB first), so
    two orbits can never share an id and the same orbit gets the same id
    on every machine.
    """
    return f"n{rep.n}-c{rep.to_hex()}"
