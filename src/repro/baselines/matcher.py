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
   computed batched as int64 rows, candidate index maps are looked up
   in the precomputed gather table, and one fancy-indexed gather checks
   every candidate of every query — across queries and across sources;
4. targets whose candidates exceed a cap (highly symmetric functions)
   are decided by exact canonical forms instead: one batched
   exhaustive kernel pass over them and their sources, equal minima
   meaning equivalent;
5. the witnessing transform is verified in a single final step — the
   one place verification happens, for every search path.

Below the cap the witness returned is the first surviving candidate in
the deterministic search order (most-constrained slot first, candidate
variables in index order, polarity 0 before 1, output phase 0 before
1) — exactly the transform the scalar backtracker finds, so results
are byte-stable across the two implementations.  Above it the witness
is the canonical-form composition: verified, but not necessarily the
backtracker's.

For ``n > 6`` (and as the seed reference the benchmarks compare
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

import itertools
from collections.abc import Iterator, Sequence
from functools import lru_cache

import numpy as np

from repro import kernels
from repro.core import bitops
from repro.core import characteristics as chars
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.kernels import MAX_KERNEL_VARS

__all__ = [
    "find_npn_transform",
    "find_npn_transforms_from",
    "find_npn_transforms_grouped",
    "find_npn_transform_scalar",
    "are_npn_equivalent",
    "variable_keys",
]

#: Entries kept by the keyed LRUs over the per-table invariant keys —
#: sized for a working set of library representatives plus recent queries.
VARIABLE_KEY_CACHE_SIZE = 4096

#: Per-target candidate budget of the batched path; targets enumerating
#: more (highly symmetric functions) are resolved by comparing exact
#: canonical forms instead.  Measured on a 2-core x86 host: matching the
#: EPFL-like cut functions runs at 8.4k cuts/s with a cap of 1,024, 8.6k
#: at 512 and 9.7k at 256; at 128 random ``n = 6`` hits get 10-25%
#: slower (some of them overflow) for no clear gain on the cuts.
_BULK_CANDIDATE_CAP = 256

#: Candidate rows the batched path accumulates before a gather flush —
#: bounds the numpy intermediates and the Python candidate lists no
#: matter how large (or how symmetric) the query batch is.
_GATHER_WINDOW = 1 << 16


def find_npn_transform(
    source: TruthTable, target: TruthTable
) -> NPNTransform | None:
    """A transform ``t`` with ``t(source) == target``, or ``None``.

    Complete: returns a transform iff the functions are NPN equivalent.
    """
    return find_npn_transforms_grouped([(source, [target])])[0][0]


def find_npn_transforms_from(
    source: TruthTable, targets: Sequence[TruthTable]
) -> list[NPNTransform | None]:
    """Witnesses mapping ``source`` onto each target, sharing all pruning.

    The single-source bulk form of :func:`find_npn_transform`; entry
    ``i`` is ``None`` when ``targets[i]`` is not NPN-equivalent to
    ``source`` (including arity mismatches).
    """
    return find_npn_transforms_grouped([(source, list(targets))])[0]


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
    canonical-form comparison, or the ``n > 6`` scalar fallback).

    Targets whose candidate sets exceed ``_BULK_CANDIDATE_CAP`` (highly
    symmetric functions such as XOR or majority) skip the gather: one
    batched :func:`~repro.kernels.canonical_min_transforms` call over
    them and their sources decides equivalence (equal orbit minima),
    and the witness is the composition of the two argmin transforms.
    Such a witness is valid but need not be the first one the scalar
    backtracker would find.
    """
    pairs = [(source, list(targets)) for source, targets in pairs]
    raw = _search_transforms_grouped(pairs)
    return [
        [
            w if w is not None and source.apply(w) == target else None
            for w, target in zip(row, targets)
        ]
        for row, (source, targets) in zip(raw, pairs)
    ]


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


def _search_transforms_grouped(
    pairs: list[tuple[TruthTable, list[TruthTable]]],
) -> list[list[NPNTransform | None]]:
    """Unverified witnesses per pair group (the caller verifies, once)."""
    results: list[list[NPNTransform | None]] = [
        [None] * len(targets) for _, targets in pairs
    ]
    pending_by_n: dict[int, list[tuple[int, int]]] = {}
    for p, (source, targets) in enumerate(pairs):
        n = source.n
        for t, target in enumerate(targets):
            if target.n != n:
                continue
            if n == 0:
                results[p][t] = NPNTransform(
                    (), 0, (source.bits ^ target.bits) & 1
                )
            elif target.bits == source.bits:
                # Identical tables need no search: the identity witnesses
                # them.  Library matching hits this constantly (queries
                # equal to stored representatives), so skip the keys.
                results[p][t] = NPNTransform.identity(n)
            elif n > MAX_KERNEL_VARS:
                results[p][t] = _scalar_search(source, target, variable_keys)
            else:
                pending_by_n.setdefault(n, []).append((p, t))
    for n, pending in pending_by_n.items():
        _vector_search_arity(n, pairs, pending, results)
    return results


def _vector_search_arity(
    n: int,
    pairs: list[tuple[TruthTable, list[TruthTable]]],
    pending: list[tuple[int, int]],
    results: list[list[NPNTransform | None]],
) -> None:
    """Resolve all pending (pair, target) slots of one arity in-place."""
    size = 1 << n
    mask = bitops.table_mask(n)

    # One batched key pass over every pending target; the complement
    # encodings (for output phase 1) are derived, not recomputed.
    matrices = kernels.key_matrices(
        n, [pairs[p][1][t].bits for p, t in pending]
    )
    complements = kernels.complement_key_matrices(matrices, n)

    # Distinct sources of this arity share bit-matrix rows in the gather
    # and stack their (LRU-cached) key rows for the candidate matrices.
    src_rows: dict[int, int] = {}
    src_ints: list[int] = []
    src_stack: list[tuple[np.ndarray, np.ndarray, int]] = []
    src_of_target = np.empty(len(pending), dtype=np.intp)
    for k, (p, _) in enumerate(pending):
        source = pairs[p][0]
        row = src_rows.get(source.bits)
        if row is None:
            row = len(src_ints)
            src_rows[source.bits] = row
            src_ints.append(source.bits)
            src_stack.append(_source_key_matrix(source))
        src_of_target[k] = row
    s_keys = np.stack([s[0] for s in src_stack])[src_of_target]
    s_cofs = np.stack([s[1] for s in src_stack])[src_of_target]
    s_counts = np.array([s[2] for s in src_stack], dtype=np.int64)[
        src_of_target
    ]

    # Candidate matrices across the whole batch: ``masks[k][i][v]`` is
    # the bitmask of input polarities slot ``i`` may take reading
    # variable ``v`` (0 when the keys differ or no polarity fits), and
    # ``counts[k][i]`` the number of key-equal candidates (the slot
    # ordering criterion of the scalar backtracker).  Phase-1 state is
    # computed lazily, only over the sub-batch whose satisfy counts make
    # output negation viable at all.
    phase0_viable = s_counts == matrices.counts
    phase1_viable = s_counts == size - matrices.counts
    phase_state: list[dict | None] = [None, None]
    for phase, viable, key_state in (
        (0, phase0_viable, matrices),
        (1, phase1_viable, complements),
    ):
        if not viable.any():
            continue
        rows = np.flatnonzero(viable)
        sub = kernels.KeyMatrices(
            key_state.counts[rows],
            key_state.keys[rows],
            key_state.cofactors[rows],
        )
        phase_state[phase] = _phase_state(
            s_keys[rows], s_cofs[rows], sub, rows, n
        )

    table = kernels.gather_table(n)
    src_bits = kernels.bit_matrix(n, src_ints)

    cand_perms: list[tuple[int, ...]] = []
    cand_phases: list[int] = []
    cand_src: list[int] = []
    segments: list[tuple[int, int, int, int, int, int]] = []
    overflow: list[int] = []

    def flush() -> None:
        """Gather-and-compare the accumulated candidate window.

        Windows bound both the numpy intermediates and the Python
        candidate lists — the batched path never materialises more than
        ``_GATHER_WINDOW`` candidate rows at once, mirroring the entry
        budget the kernels apply everywhere else.  A target's segments
        are always flushed together (the window only rolls over between
        targets), so the phase-0-before-phase-1 resolution order holds.
        """
        if not cand_perms:
            return
        rows = np.fromiter(
            (table.row_of(perm) for perm in cand_perms),
            dtype=np.intp,
            count=len(cand_perms),
        )
        maps = table.index_maps(rows, np.array(cand_phases, dtype=np.uint8))
        images = src_bits[np.array(cand_src, dtype=np.intp)[:, None], maps]
        packed = kernels.pack_rows(images).tolist()
        # Segments preserve the search order: output phase 0 before 1,
        # then candidate enumeration order — the first hit is the witness
        # the scalar backtracker would have returned.
        for p, t, output_phase, start, stop, g_value in segments:
            if results[p][t] is not None:
                continue
            for c in range(start, stop):
                if packed[c] == g_value:
                    results[p][t] = NPNTransform(
                        cand_perms[c], cand_phases[c], output_phase
                    )
                    break
        cand_perms.clear()
        cand_phases.clear()
        cand_src.clear()
        segments.clear()

    for k, (p, t) in enumerate(pending):
        target = pairs[p][1][t]
        collected: list[tuple[int, list, int]] | None = []
        for output_phase, state in enumerate(phase_state):
            if state is None:
                continue
            local = state["local"].get(k)
            if local is None:
                continue
            unique = state["unique"][local]
            if unique is not None:
                candidates = [unique] if unique else []
            else:
                candidates = _collect_assignments(
                    n,
                    state["masks"][local].tolist(),
                    state["counts"][local].tolist(),
                    _BULK_CANDIDATE_CAP,
                )
            if candidates is None:
                collected = None  # highly symmetric: canonical forms decide
                break
            if not candidates:
                continue
            g_value = target.bits if output_phase == 0 else target.bits ^ mask
            collected.append((output_phase, candidates, g_value))
        if collected is None:
            overflow.append(k)
            continue
        row = int(src_of_target[k])
        for output_phase, candidates, g_value in collected:
            start = len(cand_perms)
            for perm, phase in candidates:
                cand_perms.append(perm)
                cand_phases.append(phase)
                cand_src.append(row)
            segments.append(
                (p, t, output_phase, start, len(cand_perms), g_value)
            )
        if len(cand_perms) >= _GATHER_WINDOW:
            flush()
    flush()

    if overflow:
        _resolve_by_canonical_form(n, pairs, pending, overflow, results)


def _resolve_by_canonical_form(
    n: int,
    pairs: list[tuple[TruthTable, list[TruthTable]]],
    pending: list[tuple[int, int]],
    overflow: list[int],
    results: list[list[NPNTransform | None]],
) -> None:
    """Resolve the over-cap targets with one exhaustive kernel pass.

    The overflow targets and their distinct sources go through one
    :func:`~repro.kernels.canonical_min_transforms` call.  A pair is
    equivalent iff both reach the same orbit minimum; then
    ``T_t⁻¹ ∘ T_s`` maps the source onto the target.
    """
    slots = [pending[k] for k in overflow]
    src_rows: dict[int, int] = {}
    for p, _ in slots:
        src_rows.setdefault(pairs[p][0].bits, len(slots) + len(src_rows))
    minima, transforms = kernels.canonical_min_transforms(
        [pairs[p][1][t].bits for p, t in slots] + list(src_rows), n
    )
    minima = minima.tolist()
    for row, (p, t) in enumerate(slots):
        source = src_rows[pairs[p][0].bits]
        if minima[row] == minima[source]:
            results[p][t] = transforms[row].inverse().compose(
                transforms[source]
            )


def _phase_state(
    s_keys: np.ndarray,
    s_cofs: np.ndarray,
    t_matrices: kernels.KeyMatrices,
    rows: np.ndarray,
    n: int,
) -> dict:
    """Candidate state for one output phase over a viable sub-batch.

    ``masks[l][i][v]``: bit ``b`` set iff slot ``i`` of the source may
    read target variable ``v`` with input polarity ``b`` — keys equal
    and the first-level cofactor counts line up (g-words with ``x_v =
    c`` are f-words with ``w_i = c ^ b``).  ``counts[l][i]`` counts
    key-equal candidates only (polarity-blind), preserving the scalar
    backtracker's most-constrained-slot ordering.

    ``unique[l]`` resolves the dominant case without any Python search:
    the single surviving assignment as ``(perm, phase)`` when every slot
    has exactly one key-equal candidate with exactly one feasible
    polarity, ``()`` when the matrices already prove no assignment
    exists, and ``None`` when the backtracking collector must run.
    """
    t_keys, t_cofs = t_matrices.keys, t_matrices.cofactors
    equal_keys = (s_keys[:, :, None, :] == t_keys[:, None, :, :]).all(-1)
    s_view = s_cofs[:, :, None, :]  # [L, slot, 1, col]
    t_view = t_cofs[:, None, :, :]  # [L, 1, var, col]
    pol0 = (t_view[..., 0] == s_view[..., 0]) & (t_view[..., 1] == s_view[..., 1])
    pol1 = (t_view[..., 0] == s_view[..., 1]) & (t_view[..., 1] == s_view[..., 0])
    masks = np.where(
        equal_keys, pol0.astype(np.int8) | (pol1.astype(np.int8) << 1), np.int8(0)
    )
    counts = equal_keys.sum(axis=-1)

    total = len(rows)
    unique: list[tuple | None] = [None] * total
    if n:
        single = (counts == 1).all(axis=1)
        perm = equal_keys.argmax(axis=-1)
        perm_ok = (np.sort(perm, axis=1) == np.arange(n)).all(axis=1)
        polarity = np.take_along_axis(masks, perm[..., None], axis=2)[..., 0]
        nonzero = (polarity != 0).all(axis=1)
        one_polarity = (polarity & (polarity - 1) == 0).all(axis=1)
        rejected = (counts == 0).any(axis=1) | (single & ~(perm_ok & nonzero))
        resolved = single & perm_ok & nonzero & one_polarity
        phases = (((polarity >> 1) & 1) << np.arange(n)).sum(axis=1)
        perm_rows = perm.tolist()
        phase_values = phases.tolist()
        for l in np.flatnonzero(rejected):
            unique[l] = ()
        for l in np.flatnonzero(resolved):
            unique[l] = (tuple(perm_rows[l]), phase_values[l])
    return {
        "local": {int(k): l for l, k in enumerate(rows)},
        "masks": masks,
        "counts": counts,
        "unique": unique,
    }


def _slot_order(order_counts: list) -> list[int]:
    """Most-constrained-first slot order (the backtracker's heuristic)."""
    return sorted(range(len(order_counts)), key=order_counts.__getitem__)


def _collect_assignments(
    n: int, mask_rows: list, order_counts: list, cap: int
) -> list[tuple[tuple[int, ...], int]] | None:
    """All ``(perm, input_phase)`` assignments, or ``None`` over ``cap``.

    Stops the enumeration one past ``cap``, so an overflowing target
    costs ``cap + 1`` assignments, not its whole candidate set.
    """
    out = list(
        itertools.islice(_iter_assignments(n, mask_rows, order_counts), cap + 1)
    )
    return None if len(out) > cap else out


def _iter_assignments(
    n: int, mask_rows: list, order_counts: list
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every assignment the masks allow, in the backtracker's order."""
    if min(order_counts, default=1) == 0:
        return
    order = _slot_order(order_counts)
    slot_var = [0] * n
    slot_pol = [0] * n
    used = [False] * n

    def extend(depth: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if depth == n:
            phase = 0
            for i in range(n):
                phase |= slot_pol[i] << i
            yield tuple(slot_var), phase
            return
        slot = order[depth]
        row = mask_rows[slot]
        for v in range(n):
            allowed = row[v]
            if not allowed or used[v]:
                continue
            used[v] = True
            slot_var[slot] = v
            for polarity in (0, 1):
                if (allowed >> polarity) & 1:
                    slot_pol[slot] = polarity
                    yield from extend(depth + 1)
            used[v] = False

    yield from extend(0)


# ----------------------------------------------------------------------
# Scalar reference (the seed matcher; n > MAX_KERNEL_VARS fallback)
# ----------------------------------------------------------------------


def find_npn_transform_scalar(
    source: TruthTable, target: TruthTable
) -> NPNTransform | None:
    """The seed scalar matcher: per-pair backtracking, no vectorization.

    Kept as the ``n > MAX_KERNEL_VARS`` fallback, as the oracle the
    parity tests compare against, and as the baseline the matcher
    benchmark measures the kernels against.  Recomputes variable keys on
    every call (the seed behaviour) so benchmark comparisons stay
    honest; the fallback path inside the bulk search passes the
    memoized :func:`variable_keys` instead.
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
