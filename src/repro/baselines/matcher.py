"""Pairwise exact NPN matching with signature pruning.

Given two functions ``f`` and ``g``, decide whether some NPN transform
maps ``f`` onto ``g`` — and produce it.  This is the classical
"search with signature pruning" approach of the paper's related work
(in particular Zhang et al., ICCAD'21 [6], which prunes with sensitivity
signatures); it is what makes exact classification tractable beyond the
reach of exhaustive enumeration:

1. reject instantly unless satisfy counts allow a match for some output
   polarity;
2. per variable, compute an NPN-invariant *variable key* (influence,
   polarity-sorted cofactor counts, polarity-sorted sensitivity
   histograms); a variable of ``f`` may only map to a variable of ``g``
   with an identical key;
3. enumerate the transforms surviving the key and first-level cofactor
   constraints and check them **all in one vectorized gather+compare**
   through :mod:`repro.kernels` (``n <= 6``): variable keys are
   computed batched as int64 rows; a target with one key-equal variable
   per slot reads its permutation straight off the candidate masks,
   every other target tests all ``n!`` permutations of the gather table
   in one fancy-index; one fancy-indexed gather per surviving
   (target, permutation) pair — across queries and across sources —
   packs its image, and its free input polarities expand by
   ``np.repeat`` into in-word input flips of that image;
4. targets whose candidates exceed a cap (highly symmetric functions)
   are decided by exact canonical forms instead: one batched
   exhaustive kernel pass over them and their sources, equal minima
   meaning equivalent;
5. every witnessing transform is verified in a single final step — the
   one place verification happens, for every search path: one
   pairwise gather (:func:`repro.kernels.apply_pairwise`) checks all
   witnesses of an arity ``n <= 6`` at once, and a scalar apply checks
   each larger one.

Below the cap the witness returned is the first surviving candidate in
the deterministic search order (most-constrained slot first, candidate
variables in index order, polarity 0 before 1, output phase 0 before
1) — exactly the transform the scalar backtracker finds, so results
are byte-stable across the two implementations.  Above it the witness
is the canonical-form composition: verified, but not necessarily the
backtracker's.

For ``n > 6`` (and as the seed reference the parity tests compare
against) the scalar backtracker of :func:`find_npn_transform_scalar`
remains: it extends slot assignments one at a time, checking after
every extension that every cofactor of the assigned prefix has matching
satisfy counts (``2^d`` masked popcounts at depth ``d``).

Worst-case exponential like every exact matcher, but the per-variable keys
collapse the candidate lists to near-singletons for all but highly
symmetric functions — and those are settled by one canonical-form pass
whose cost does not depend on the symmetry.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache

import numpy as np

from repro import kernels
from repro.core import bitops
from repro.core import characteristics as chars
from repro.core.transforms import NPNTransform, TransformColumns
from repro.core.truth_table import TruthTable
from repro.kernels import MAX_KERNEL_VARS

__all__ = [
    "find_npn_transform",
    "find_npn_transforms_grouped",
    "find_npn_transform_scalar",
    "are_npn_equivalent",
    "variable_keys",
]

#: Entries kept by the keyed LRUs over the per-table invariant keys —
#: sized for a working set of library representatives plus recent queries.
VARIABLE_KEY_CACHE_SIZE = 4096

#: Per-target, per-output-phase candidate budget of the batched path;
#: targets enumerating more (highly symmetric functions) are resolved by
#: comparing exact canonical forms instead.  Of the 246 distinct
#: ``n = 6`` cut functions of ``perfbench``'s ``cuts-library`` circuits,
#: 36 overflow a cap of 256, 28 of 512, 10 of 1,024, 6 of 4,096 and none
#: of 46,080 (= 6! * 2**6).  Matching all of them in one grouped call
#: took a median 40, 37, 34, 35, 36 and 87 ms at caps 256, 512, 1,024,
#: 2,048, 4,096 and 46,080 (11 interleaved calls each on a 2-core x86
#: host, Python 3.11, numpy 2.4).
_BULK_CANDIDATE_CAP = 1024

#: Entry budget of the batched path's temporaries: at most this many
#: (search row, permutation) pairs are tested at once, and at most this
#: many candidates (plus one pair's ``2**n``) checked at once — bounding
#: numpy intermediates no matter how large (or how symmetric) the query
#: batch is.  At ``1 << 16`` the ``cuts-library`` peak RSS rose by
#: 1.7 MiB over this value, for no measured speed.
_GATHER_WINDOW = 1 << 14


def find_npn_transform(
    source: TruthTable, target: TruthTable
) -> NPNTransform | None:
    """A transform ``t`` with ``t(source) == target``, or ``None``.

    Complete: returns a transform iff the functions are NPN equivalent.
    """
    return find_npn_transforms_grouped([(source, [target])])[0][0]


def find_npn_transforms_grouped(
    pairs: Sequence[tuple[TruthTable, Sequence[TruthTable]]],
) -> list[list[NPNTransform | None]]:
    """Batched witness search over many ``(source, targets)`` groups.

    The hot-path entry of the library's :meth:`ClassLibrary.match_many`:
    one batched variable-key pass per arity over *all* targets, source
    keys from a keyed LRU, and one fancy-indexed gather per arity
    checking every surviving candidate transform of every pair —
    candidate checks are batched across queries *and* across sources.

    Every returned witness passes the single final verification step —
    ``source.apply(witness) == target`` — regardless of which search
    path produced it (identity short-circuit, vectorized gather,
    canonical-form comparison, or the ``n > 6`` scalar fallback).  The
    step checks all witnesses of one arity ``n <= 6`` in one
    :func:`~repro.kernels.apply_pairwise` gather, and each larger one
    with a scalar apply; a witness that fails it becomes ``None``.

    Targets whose candidate sets exceed ``_BULK_CANDIDATE_CAP`` (highly
    symmetric functions such as XOR or majority) skip the gather: one
    batched :func:`~repro.kernels.canonical_min_transforms` call over
    them and their sources decides equivalence (equal orbit minima),
    and the witness is the composition of the two argmin transforms.
    Such a witness is valid but need not be the first one the scalar
    backtracker would find.
    """
    pairs = [(source, list(targets)) for source, targets in pairs]
    out: list[list[NPNTransform | None]] = [
        [None] * len(targets) for _, targets in pairs
    ]
    slots_by_n: dict[int, list[tuple[int, int]]] = {}
    for p, (source, targets) in enumerate(pairs):
        for t, target in enumerate(targets):
            if target.n == source.n:
                slots_by_n.setdefault(source.n, []).append((p, t))
    for n, slots in slots_by_n.items():
        sources = [pairs[p][0] for p, _ in slots]
        targets = [pairs[p][1][t] for p, t in slots]
        if n > MAX_KERNEL_VARS:
            for (p, t), source, target in zip(slots, sources, targets):
                witness = _scalar_search(source, target, variable_keys)
                if witness is not None and source.apply(witness) == target:
                    out[p][t] = witness
            continue
        found, witnesses = _search_arity(n, sources, targets)
        # The one verification step: one pairwise gather for the arity.
        images = kernels.apply_pairwise(
            [sources[k].bits for k in found.tolist()], witnesses, n
        )
        goals = [targets[k].bits for k in found.tolist()]
        ok = np.flatnonzero(images == np.array(goals, dtype=np.uint64))
        for k, witness in zip(found[ok].tolist(), witnesses.take(ok)):
            p, t = slots[k]
            out[p][t] = witness
    return out


def are_npn_equivalent(a: TruthTable, b: TruthTable) -> bool:
    """Convenience wrapper around :func:`find_npn_transform`."""
    return find_npn_transform(a, b) is not None


def _variable_keys_uncached(tt: TruthTable) -> tuple[tuple, ...]:
    n = tt.n
    profile = chars.sensitivity_profile(tt)
    keys = []
    for i in range(n):
        infl = chars.influence(tt, i)
        neg = tt.cofactor_count(i, 0)
        pos = tt.cofactor_count(i, 1)
        mask = bitops.to_bit_array(bitops.var_mask(n, i), n).astype(bool)
        hist_pos = tuple(np.bincount(profile[mask], minlength=n + 1).tolist())
        hist_neg = tuple(np.bincount(profile[~mask], minlength=n + 1).tolist())
        keys.append(
            (
                infl,
                (neg, pos) if neg <= pos else (pos, neg),
                min(
                    (hist_neg, hist_pos),
                    (hist_pos, hist_neg),
                ),
            )
        )
    return tuple(keys)


@lru_cache(maxsize=VARIABLE_KEY_CACHE_SIZE)
def variable_keys(tt: TruthTable) -> tuple[tuple, ...]:
    """Per-variable NP-invariant keys used to restrict candidate mappings.

    Invariant under input negation and permutation (what the PN matching
    core needs — output polarity is resolved before the search); cofactor
    pairs are *not* preserved by output negation.

    Key of variable ``i``: ``(influence, sorted cofactor-count pair,
    sorted pair of per-polarity sensitivity histograms)``.  Equivalent
    variables (under any NP transform mapping one onto the other) always
    share keys; the converse does not hold, which is why a search follows.

    Memoized per :class:`TruthTable` (keyed LRU of
    ``VARIABLE_KEY_CACHE_SIZE`` entries): repeated ``match`` calls
    against the same library representative stop recomputing the
    invariant keys.  The vectorized path keeps its own equally-sized LRU
    over the int64 row encoding (:func:`repro.kernels.key_matrices`).
    """
    return _variable_keys_uncached(tt)


@lru_cache(maxsize=VARIABLE_KEY_CACHE_SIZE)
def _source_key_matrix(tt: TruthTable) -> tuple[np.ndarray, np.ndarray, int]:
    """``(key rows, cofactor pairs, satisfy count)`` of one source table.

    The int64-row twin of :func:`variable_keys` the vectorized search
    consumes; memoized so repeated matches against the same library
    representative reuse the computed rows.
    """
    matrices = kernels.key_matrices(tt.n, [tt.bits])
    return (
        matrices.keys[0],
        matrices.cofactors[0],
        int(matrices.counts[0]),
    )


# ----------------------------------------------------------------------
# Vectorized search (n <= MAX_KERNEL_VARS)
# ----------------------------------------------------------------------


def _search_arity(
    n: int, source_tables: list[TruthTable], target_tables: list[TruthTable]
) -> tuple[np.ndarray, TransformColumns]:
    """Unverified witnesses of one arity's ``(source, target)`` slots:
    ``(slot indices, witness rows)`` (the caller verifies, once)."""
    src = np.array([s.bits for s in source_tables], dtype=np.uint64)
    tgt = np.array([t.bits for t in target_tables], dtype=np.uint64)
    # Identical tables need no search: the identity witnesses them, and
    # a constant (n = 0) reaches its complement by output negation.
    # Library matching hits this constantly (queries equal to stored
    # representatives), so skip the keys.
    same = np.flatnonzero((src == tgt) | (n == 0))
    pending = np.flatnonzero((src != tgt) & (n > 0))
    # Found so far: (slots, gather-table rows, input and output phases);
    # row 0 of the gather table is the identity permutation.
    zeros = np.zeros_like(same)
    found = [(same, zeros, zeros, (src ^ tgt)[same])]
    size = 1 << n

    # One batched key pass over every pending target.
    pending_sources = [source_tables[k] for k in pending.tolist()]
    target_ints = tgt[pending].tolist()
    matrices = kernels.key_matrices(n, target_ints)

    # Distinct sources of this arity share bit-matrix rows in the gather
    # and stack their (LRU-cached) key rows for the candidate matrices.
    src_rows: dict[int, int] = {}
    src_ints: list[int] = []
    src_stack: list[tuple[np.ndarray, np.ndarray, int]] = []
    src_of_target = np.empty(len(pending_sources), dtype=np.intp)
    for k, source in enumerate(pending_sources):
        row = src_rows.get(source.bits)
        if row is None:
            row = len(src_ints)
            src_rows[source.bits] = row
            src_ints.append(source.bits)
            src_stack.append(_source_key_matrix(source))
        src_of_target[k] = row
    s_counts = np.array([s[2] for s in src_stack], dtype=np.int64)[
        src_of_target
    ]

    # One search row per (target, output phase) whose satisfy counts
    # make the phase viable at all; phase-0 rows come first.
    viable0 = np.flatnonzero(s_counts == matrices.counts)
    viable1 = np.flatnonzero(s_counts == size - matrices.counts)
    targets = np.concatenate([viable0, viable1])
    if not targets.size:
        return _witness_rows(n, found)
    t_keys = matrices.keys[viable0]
    t_cofs = matrices.cofactors[viable0]
    goals = np.array(target_ints, dtype=np.uint64)[targets]
    if viable1.size:
        # Output phase 1 matches ``~target``, whose key encodings are
        # derived, not recomputed.
        complements = kernels.complement_key_matrices(matrices, n)
        t_keys = np.concatenate([t_keys, complements.keys[viable1]])
        t_cofs = np.concatenate([t_cofs, complements.cofactors[viable1]])
        goals[viable0.size :] ^= np.uint64(bitops.table_mask(n))
    sources = src_of_target[targets]
    masks, counts = _candidate_masks(
        np.stack([s[0] for s in src_stack])[sources],
        np.stack([s[1] for s in src_stack])[sources],
        t_keys,
        t_cofs,
    )

    table = kernels.gather_table(n)
    src_bits = kernels.bit_matrix(n, src_ints)
    slots = np.arange(n, dtype=np.int8)

    def first_hits(row, perm_row, phase):
        """Each target's hit with the smallest order key.

        The key weighs the digit ``perm[s] * 2 + polarity[s]`` of slot
        ``s`` by ``(2n)^(n-1-d)`` at its stable most-constrained-first
        depth ``d``, and ranks output phase 1 after all of phase 0: the
        smallest key is the backtracker's first hit.
        """
        if row.size < 2:
            return row, perm_row, phase
        radix = 2 * n
        depth = np.argsort(
            np.argsort(counts[row], axis=1, kind="stable"), axis=1
        )
        digits = table.perms[perm_row] * 2 + ((phase[:, None] >> slots) & 1)
        key = (digits * radix ** (n - 1 - depth)).sum(axis=1)
        key += (row >= viable0.size) * radix**n
        target = targets[row]
        order = np.lexsort((key, target))
        first = np.ones(order.size, dtype=bool)
        first[1:] = target[order[1:]] != target[order[:-1]]
        won = order[first]
        return row[won], perm_row[won], phase[won]

    # One gather per (row, permutation) pair, with its forced
    # polarities; its free ones expand by flipping the packed image.
    over_cap = np.zeros(len(targets), dtype=bool)
    hits = []
    for row, perm_row, sel in _candidate_pairs(n, masks, counts, over_cap):
        phase = ((sel == 2) << slots).sum(axis=1, dtype=np.uint8)
        maps = table.index_maps(perm_row, phase)
        images = kernels.pack_rows(src_bits[sources[row][:, None], maps])
        free = sel == 3
        if free.any():
            row, perm_row, phase, images = _flip_free(
                table.perms, row, perm_row, phase, images, free
            )
        hit = np.flatnonzero(images == goals[row])
        if hit.size:
            hits.append(first_hits(row[hit], perm_row[hit], phase[hit]))
    if len(hits) > 1:  # windows reduce separately: once more across them
        hits = [first_hits(*map(np.concatenate, zip(*hits)))]

    # A target with an over-cap row is resolved by canonical form.
    overflowed = np.zeros(len(target_ints), dtype=bool)
    overflowed[targets[over_cap]] = True
    for row, perm_row, phase in hits:
        keep = ~overflowed[targets[row]]
        found.append(
            (
                pending[targets[row[keep]]],
                perm_row[keep],
                phase[keep],
                row[keep] >= viable0.size,
            )
        )
    slots, witnesses = _witness_rows(n, found)
    if overflowed.any():
        resolved, composed = _resolve_by_canonical_form(
            n, pending_sources, target_ints, np.flatnonzero(overflowed)
        )
        slots = np.concatenate([slots, pending[resolved]])
        witnesses = TransformColumns.concatenate([witnesses, composed])
    return slots, witnesses


def _witness_rows(
    n: int, found: list[tuple[np.ndarray, ...]]
) -> tuple[np.ndarray, TransformColumns]:
    """``(slots, witness rows)`` of ``(slots, gather-table rows, input
    phases, output phases)`` blocks."""
    slots, perm_rows, phases, outputs = map(np.concatenate, zip(*found))
    perms = kernels.gather_table(n).perms[perm_rows]
    return slots, TransformColumns.of_arity(n, perms, phases, outputs)


def _resolve_by_canonical_form(
    n: int,
    sources: list[TruthTable],
    target_ints: list[int],
    overflow: np.ndarray,
) -> tuple[np.ndarray, TransformColumns]:
    """Resolve the over-cap targets with one exhaustive kernel pass.

    The overflow targets and their distinct sources go through one
    :func:`~repro.kernels.canonical_min_transforms` call.  A pair is
    equivalent iff both reach the same orbit minimum; then
    ``T_t⁻¹ ∘ T_s`` maps the source onto the target, composed for every
    equivalent pair at once.
    """
    src_rows: dict[int, int] = {}
    for k in overflow.tolist():
        src_rows.setdefault(sources[k].bits, len(overflow) + len(src_rows))
    minima, transforms = kernels.canonical_min_transforms(
        [target_ints[k] for k in overflow.tolist()] + list(src_rows), n
    )
    source_rows = np.array(
        [src_rows[sources[k].bits] for k in overflow.tolist()], dtype=np.intp
    )
    equal = np.flatnonzero(minima[: len(overflow)] == minima[source_rows])
    composed = transforms.take(equal).inverse().compose(
        transforms.take(source_rows[equal])
    )
    return overflow[equal], composed


def _candidate_masks(
    s_keys: np.ndarray,
    s_cofs: np.ndarray,
    t_keys: np.ndarray,
    t_cofs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(masks, counts)`` of a batch of (source, target) search rows.

    ``masks[l, i, v]``: bit ``b`` set iff slot ``i`` of the source may
    read target variable ``v`` with input polarity ``b`` — keys equal
    and the first-level cofactor counts line up (g-words with ``x_v =
    c`` are f-words with ``w_i = c ^ b``).  ``counts[l, i]`` counts
    key-equal candidates only (polarity-blind), preserving the scalar
    backtracker's most-constrained-slot ordering.
    """
    equal_keys = (s_keys[:, :, None, :] == t_keys[:, None, :, :]).all(-1)
    s_view = s_cofs[:, :, None, :]  # [L, slot, 1, col]
    t_view = t_cofs[:, None, :, :]  # [L, 1, var, col]
    pol0 = (t_view[..., 0] == s_view[..., 0]) & (t_view[..., 1] == s_view[..., 1])
    pol1 = (t_view[..., 0] == s_view[..., 1]) & (t_view[..., 1] == s_view[..., 0])
    masks = np.where(
        equal_keys, pol0.astype(np.int8) | (pol1.astype(np.int8) << 1), np.int8(0)
    )
    return masks, equal_keys.sum(axis=-1)


def _candidate_pairs(
    n: int, masks: np.ndarray, counts: np.ndarray, over_cap: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Windows of ``(row, perm row, slot masks)`` candidate pairs.

    A pair is one search row and one gather-table permutation every
    slot of which has a feasible polarity (``sel[s]`` is the mask of
    slot ``s`` at its variable); it stands for the ``2**f`` candidates
    over its ``f`` free (mask ``3``) slots.  Rows whose candidate total
    exceeds ``_BULK_CANDIDATE_CAP`` are flagged in ``over_cap`` and
    yield nothing.

    Rows with exactly one key-equal variable per slot read their
    permutation straight off the masks.  Every other row is tested
    against all ``n!`` permutations of the gather table in one
    fancy-index, ``_GATHER_WINDOW // n!`` rows at a time.  There the
    ``n`` slot masks of one permutation are read as the bytes of one
    ``uint64`` word, so the feasibility test and the count of free
    slots are a few word operations per permutation.
    """
    single = (counts == 1).all(axis=1)
    rows = np.flatnonzero(single)
    if rows.size:
        sub = masks[rows]  # only the key-equal variable's mask can be nonzero
        sel = sub.max(axis=2)
        perm_rows = kernels.gather_table(n).rows_for(sub.argmax(axis=2))
        totals = 1 << (sel == 3).sum(axis=1)
        ok = (perm_rows >= 0) & sel.all(axis=1)
        if totals.max() > _BULK_CANDIDATE_CAP:
            capped = totals > _BULK_CANDIDATE_CAP
            over_cap[rows[ok & capped]] = True
            ok &= ~capped
        if not ok.all():
            rows, perm_rows = rows[ok], perm_rows[ok]
            sel, totals = sel[ok], totals[ok]
        yield from _windows(rows, perm_rows, sel, totals)
    if single.all():
        return
    rows = np.flatnonzero(~single & (counts > 0).all(axis=1))
    # Byte ``n * n`` of a row is a neutral ``1`` the unused bytes read.
    flat = np.ones((len(masks), n * n + 1), dtype=np.int8)
    flat[:, : n * n] = masks.reshape(len(masks), n * n)
    index = _slot_bytes(n)
    ones = np.uint64(0x0101010101010101)
    step = max(1, _GATHER_WINDOW // len(index))
    for start in range(0, rows.size, step):
        chunk = rows[start : start + step]
        sel = np.take(flat[chunk], index, axis=1)  # [R, n!, 8]
        word = sel.view(np.uint64)[..., 0]
        # Bit 0 of byte ``s``: slot ``s`` has some polarity / has both.
        feasible = ((word | (word >> 1)) & ones) == ones
        free = ((word & (word >> 1) & ones) * ones) >> 56  # sums the bytes
        per_perm = feasible << free.astype(np.int16)
        capped = per_perm.sum(axis=1) > _BULK_CANDIDATE_CAP
        over_cap[chunk[capped]] = True
        per_perm[capped] = 0
        r, p = np.nonzero(per_perm)
        yield from _windows(chunk[r], p, sel[r, p, :n], per_perm[r, p])


def _windows(
    rows: np.ndarray,
    perm_rows: np.ndarray,
    sels: np.ndarray,
    totals: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split pairs into windows of at most ``_GATHER_WINDOW`` candidates
    (or one pair's ``totals``, when that alone is more)."""
    ends = np.cumsum(totals)
    start = 0
    while start < rows.size:
        base = ends[start - 1] if start else 0
        stop = max(
            start + 1,
            int(np.searchsorted(ends, base + _GATHER_WINDOW, "right")),
        )
        yield rows[start:stop], perm_rows[start:stop], sels[start:stop]
        start = stop


def _flip_free(
    perms: np.ndarray,
    rows: np.ndarray,
    perm_rows: np.ndarray,
    phases: np.ndarray,
    images: np.ndarray,
    free: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand each pair into its ``2**f`` candidates by ``np.repeat``.

    Candidate ``c`` of a pair reads bit ``j`` of ``c`` as the polarity
    of its ``j``-th free slot.  Flipping slot ``s`` flips the image's
    input ``perm[s]``: a swap of the packed word's ``2**perm[s]``-blocks
    — no second gather.
    """
    count = 1 << free.sum(axis=1)
    pair = np.repeat(np.arange(count.size), count)
    offset = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    before = np.cumsum(free, axis=1) - free  # free slots ahead of each slot
    phases = phases[pair]
    images = images[pair]
    for s in np.flatnonzero(free.any(axis=0)):
        bit = (offset >> before[pair, s]) & 1
        flip = np.flatnonzero(free[pair, s] & (bit == 1))
        var = perms[perm_rows[pair[flip]], s]
        images[flip] = kernels.flip_input(images[flip], var, perms.shape[1])
        phases[flip] |= np.uint8(1 << s)
    return rows[pair], perm_rows[pair], phases, images


@lru_cache(maxsize=None)
def _slot_bytes(n: int) -> np.ndarray:
    """``[n!, 8]`` index into a row's flattened ``[n * n + 1]`` masks.

    Byte ``s < n`` of permutation ``p`` reads ``masks[s, perms[p, s]]``;
    the bytes past ``n`` read the neutral entry ``n * n``.
    """
    perms = kernels.gather_table(n).perms.astype(np.intp)
    index = np.full((len(perms), 8), n * n, dtype=np.intp)
    index[:, :n] = np.arange(n) * n + perms
    index.setflags(write=False)
    return index


# ----------------------------------------------------------------------
# Scalar reference (the seed matcher; n > MAX_KERNEL_VARS fallback)
# ----------------------------------------------------------------------


def find_npn_transform_scalar(
    source: TruthTable, target: TruthTable
) -> NPNTransform | None:
    """The seed scalar matcher: per-pair backtracking, no vectorization.

    Kept as the ``n > MAX_KERNEL_VARS`` fallback and as the oracle the
    parity tests compare against.  Recomputes variable keys on every
    call (the seed behaviour); the fallback path inside the bulk search
    passes the memoized :func:`variable_keys` instead.
    """
    witness = _scalar_search(source, target, _variable_keys_uncached)
    if witness is None:
        return None
    return witness if source.apply(witness) == target else None


def _scalar_search(
    source: TruthTable, target: TruthTable, keys
) -> NPNTransform | None:
    if source.n != target.n:
        return None
    n = source.n
    if n == 0:
        return NPNTransform((), 0, (source.bits ^ target.bits) & 1)
    if source.bits == target.bits:
        return NPNTransform.identity(n)
    size = 1 << n
    count_f, count_g = source.count_ones(), target.count_ones()
    for output_phase in (0, 1):
        expected = count_g if output_phase == 0 else size - count_g
        if count_f != expected:
            continue
        flipped = target if output_phase == 0 else ~target
        transform = _find_pn_transform(source, flipped, keys)
        if transform is not None:
            return NPNTransform(transform.perm, transform.input_phase, output_phase)
    return None


def _find_pn_transform(
    f: TruthTable, g: TruthTable, keys=_variable_keys_uncached
) -> NPNTransform | None:
    """PN-only matching core: find ``t`` (no output negation) with ``t(f) = g``.

    Searches assignments ``slot i of f <- (variable v of g, polarity b)``
    such that ``g(x) = f(w)``, ``w_i = x_{perm[i]} ^ phase_i``.
    """
    n = f.n
    keys_f = keys(f)
    keys_g = keys(g)
    if sorted(keys_f) != sorted(keys_g):
        return None
    candidates = [
        [v for v in range(n) if keys_g[v] == keys_f[i]] for i in range(n)
    ]
    # Fill the most constrained slots first.
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    full_mask = bitops.table_mask(n)

    assignment: list[tuple[int, int] | None] = [None] * n
    used = [False] * n

    def extend(depth: int, restrictions: list[tuple[int, int]]) -> bool:
        """``restrictions``: list of (mask_f, mask_g) cofactor pairs so far."""
        if depth == n:
            return True
        slot = order[depth]
        var_pos = bitops.var_mask(n, slot)  # mask over f's words: w_slot = 1
        for v in candidates[slot]:
            if used[v]:
                continue
            g_pos = bitops.var_mask(n, v)
            for polarity in (0, 1):
                # g-words with x_v = c correspond to f-words with
                # w_slot = c ^ polarity.
                new_restrictions = []
                feasible = True
                for mask_f, mask_g in restrictions:
                    for c in (0, 1):
                        sub_g = mask_g & (g_pos if c else ~g_pos & full_mask)
                        wanted = c ^ polarity
                        sub_f = mask_f & (
                            var_pos if wanted else ~var_pos & full_mask
                        )
                        if bitops.popcount(f.bits & sub_f) != bitops.popcount(
                            g.bits & sub_g
                        ):
                            feasible = False
                            break
                        new_restrictions.append((sub_f, sub_g))
                    if not feasible:
                        break
                if not feasible:
                    continue
                assignment[slot] = (v, polarity)
                used[v] = True
                if extend(depth + 1, new_restrictions):
                    return True
                used[v] = False
                assignment[slot] = None
        return False

    if not extend(0, [(full_mask, full_mask)]):
        return None
    perm = tuple(assignment[i][0] for i in range(n))
    phase = 0
    for i in range(n):
        phase |= assignment[i][1] << i
    return NPNTransform(perm, phase, 0)
