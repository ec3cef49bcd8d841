"""The exact canonical form: orbit minimum at every arity.

One rule everywhere: the canonical representative of ``f`` is the
lexicographically smallest truth table in ``f``'s full NPN orbit — the
same value :func:`repro.baselines.exact_enum.exact_npn_canonical`
computes.  What changes with arity is only *how* it is computed:

* ``n <= 6`` — the batched :func:`repro.kernels.canonical_min` kernel
  (byte-identical to the exhaustive enumeration: the ``n!`` permuted
  words are gathered, the input phases added by word-level doublings);
  :func:`repro.kernels.canonical_min_transforms` reduces the same words
  with ``argmin`` and also returns the transform reaching the form
  (:func:`canonical_forms_with_transforms`); :func:`checked_witness`
  inverts it into the witness (checked with one apply) that
  learn-on-miss and the library's ``n <= 5`` match path answer with;
* ``n > 6`` — :func:`influence_canonical_scalar`, an exact search that
  walks permutations in the influence-sorted candidate order (strong
  incumbent early) and bounds the per-permutation phase enumeration by
  the incumbent's most-significant 64-bit word, so almost every phase
  assignment is rejected from its top word alone.

Class ids are a pure function of the orbit: ``n{n}-c{hex}`` where the
hex *is* the canonical representative (fixed width, MSB first).  Two
libraries built independently therefore mint identical ids for the same
orbit — the property signature-digest ids could not offer.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.canonical.influence import candidate_permutations, influence_vector
from repro.core import bitops
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.kernels.gather import MAX_KERNEL_VARS
from repro.kernels.ops import canonical_min, canonical_min_transforms, pack_rows

__all__ = [
    "canonical_form",
    "canonical_forms",
    "canonical_forms_with_transforms",
    "checked_witness",
    "influence_canonical_scalar",
    "canonical_class_id",
    "parse_canonical_class_id",
]

#: Registry mirror of the scalar search's per-call counters dict: how
#: hard the incumbent-bounded search worked (``permutations`` tried,
#: ``phase_candidates`` screened by top word, ``phases_materialized``
#: fully built) — the pruned fraction is 1 - materialized/candidates.
_SEARCH_STEPS = obs.registry().counter(
    "repro_canonical_search_steps_total",
    "Influence-aided scalar canonical search work, by step kind.",
    labels=("kind",),
)

#: Soft cap on uint8 gather entries one scalar phase block materialises.
_SCALAR_ENTRY_BUDGET = 1 << 22


def canonical_form(tt: TruthTable) -> TruthTable:
    """Exact canonical representative (orbit minimum) of one function."""
    if tt.n <= MAX_KERNEL_VARS:
        return TruthTable(tt.n, int(canonical_min([tt.bits], tt.n)[0]))
    return influence_canonical_scalar(tt)


def canonical_forms(tables, n: int | None = None) -> list[TruthTable]:
    """Exact canonical representatives of a same-arity batch.

    ``n <= 6`` runs as one batched kernel call; larger arities fall back
    to the scalar search per table (deduplicated by raw bits, since the
    scalar path is the expensive one).
    """
    items = list(tables)
    if not items:
        return []
    arity = n
    ints: list[int] = []
    for item in items:
        if isinstance(item, TruthTable):
            if arity is None:
                arity = item.n
            elif item.n != arity:
                raise ValueError(f"mixed arities in batch: {item.n} != {arity}")
            ints.append(item.bits)
        else:
            ints.append(int(item))
    if arity is None:
        raise ValueError("pass n when tables are raw integers")
    if arity <= MAX_KERNEL_VARS:
        mins = canonical_min(ints, arity)
        return [TruthTable(arity, int(value)) for value in mins]
    cache: dict[int, TruthTable] = {}
    out = []
    for bits in ints:
        rep = cache.get(bits)
        if rep is None:
            rep = influence_canonical_scalar(TruthTable(arity, bits))
            cache[bits] = rep
        out.append(rep)
    return out


def canonical_forms_with_transforms(
    tables: Sequence[TruthTable], n: int
) -> list[tuple[TruthTable, NPNTransform]]:
    """``(canonical form, transform reaching it)`` of each table of one arity.

    One :func:`~repro.kernels.canonical_min_transforms` call yields the
    orbit minima and the transforms mapping each table onto its form;
    :func:`checked_witness` turns one into the witness that maps the
    form back onto its table, so callers pay for it only where they
    need it.  The kernels raise ``ValueError`` above ``MAX_KERNEL_VARS``.
    """
    minima, transforms = canonical_min_transforms([tt.bits for tt in tables], n)
    return [(TruthTable(n, low), t) for low, t in zip(minima.tolist(), transforms)]


def checked_witness(
    form: TruthTable, transform: NPNTransform, table: TruthTable
) -> NPNTransform | None:
    """The inverse of ``transform`` if it maps ``form`` onto ``table``.

    Checked with one apply, so ``None`` means "find one some other
    way", never a wrong witness.
    """
    witness = transform.inverse()
    return witness if form.apply(witness) == table else None


def influence_canonical_scalar(
    tt: TruthTable, stats: dict | None = None
) -> TruthTable:
    """Exact orbit minimum by influence-ordered, incumbent-bounded search.

    Enumerates both output phases and all ``n!`` permutations — in the
    :func:`~repro.canonical.influence.candidate_permutations` order — and
    for each, all ``2^n`` input-phase assignments as one numpy gather.
    For ``n > 6`` only the most-significant 64-bit word of every phase
    image is packed first; phases whose top word already exceeds the
    incumbent's are discarded without materialising the full table
    (sound: the top word is the most-significant lexicographic prefix).

    Works at any arity — small ``n`` exercise the same code in tests —
    and is byte-identical to ``exact_npn_canonical``.  ``stats``, when
    given, accumulates ``permutations``, ``phase_candidates`` and
    ``phases_materialized`` counters.
    """
    n = tt.n
    if n == 0:
        return TruthTable(0, 0)  # orbit of a constant is {f, ~f}
    size = 1 << n
    perms = candidate_permutations(influence_vector(tt))
    best = bitops.table_mask(n)
    mask_chunk = max(1, _SCALAR_ENTRY_BUDGET // size)
    all_masks = np.arange(size, dtype=np.intp)
    minterms = all_masks[None, :]
    counters = {"permutations": 0, "phase_candidates": 0, "phases_materialized": 0}
    for output_phase in (0, 1):
        base = tt.bits if output_phase == 0 else bitops.flip_output(tt.bits, n)
        for perm in perms:
            counters["permutations"] += 1
            permuted = bitops.permute_inputs(base, n, perm)
            raw = permuted.to_bytes(max(1, size // 8), "little")
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8), bitorder="little"
            )[:size]
            for start in range(0, size, mask_chunk):
                masks = all_masks[start : start + mask_chunk]
                counters["phase_candidates"] += len(masks)
                # images[m, x] = permuted[x ^ m] == flip_inputs(permuted, m)
                images = bits[masks[:, None] ^ minterms]
                if size <= 64:
                    counters["phases_materialized"] += len(masks)
                    low = int(pack_rows(images).min())
                    if low < best:
                        best = low
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
                    counters["phases_materialized"] += 1
                    value = int.from_bytes(
                        np.packbits(msb_first[row], bitorder="big").tobytes(),
                        "big",
                    )
                    if value < best:
                        best = value
    if stats is not None:
        for key, value in counters.items():
            stats[key] = stats.get(key, 0) + value
    for kind, value in counters.items():
        _SEARCH_STEPS.inc(value, kind=kind)
    return TruthTable(n, best)


def canonical_class_id(rep: TruthTable) -> str:
    """``n{n}-c{hex}`` — the id *is* the canonical representative.

    Injective by construction (``to_hex`` is fixed-width, MSB first), so
    two orbits can never share an id and the same orbit gets the same id
    on every machine.
    """
    return f"n{rep.n}-c{rep.to_hex()}"


def parse_canonical_class_id(class_id: str) -> TruthTable | None:
    """Recover the representative from a canonical id; ``None`` if not one."""
    head, sep, payload = class_id.partition("-c")
    if not sep or not head.startswith("n") or not payload:
        return None
    try:
        n = int(head[1:])
        return TruthTable.from_hex(n, payload)
    except (ValueError, TypeError):
        return None
