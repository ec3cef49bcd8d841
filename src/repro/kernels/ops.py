"""Vectorized transform primitives on top of the gather tables.

Four primitives, all operating on batches and all exact:

* :func:`apply_pairwise` — each table under its own transform in one
  gather (``[K]`` ``uint64`` images), the batched witness check;
* :func:`orbit` / :func:`orbit_chunks` — the full exhaustive NPN orbit
  of one table, as one array for small arities and as streamed chunks
  for ``n = 5, 6`` where the intermediate bit matrices are what costs
  memory (the packed orbit itself is at most 92 160 words);
* :func:`canonical_min` — the batched exhaustive canonical minimum: the
  lexicographically smallest table over each input's whole orbit,
  byte-identical to
  :func:`repro.baselines.exact_enum.exact_npn_canonical`;
* :func:`canonical_min_transforms` — the same minima plus the transform
  reaching each one (an argmin witness), decoded from the winning
  columns in one :func:`decode_images` array pass into a
  :class:`~repro.core.transforms.TransformColumns` batch.

The gather primitives route through the same two moves: unpack
tables to a ``[B, 2**n]`` bit matrix once, gather it through
precomputed index maps, and pack the gathered bits back to ``uint64``
rows.  Output negation is a single XOR with the full table mask after
packing.  The canonical minimum gathers no bits: its ``n!`` permuted
words come from a chain of word-level variable swaps (one delta swap
per swapped pair, each level broadcast over the batch), and the
``2**n`` input phases of each permuted word are ``n`` in-place
word-level doublings (swap the halves where ``x_i = 0`` and
``x_i = 1``), so the whole NP orbit is built with shifts and masks on
``uint64`` words.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

import numpy as np

from repro.core import bitops
from repro.core.transforms import TransformColumns
from repro.core.truth_table import TruthTable
from repro.kernels.gather import MAX_KERNEL_VARS, GatherTable, gather_table

__all__ = [
    "bit_matrix",
    "pack_rows",
    "flip_input",
    "apply_pairwise",
    "orbit",
    "orbit_chunks",
    "canonical_min",
    "canonical_min_transforms",
    "decode_images",
]

#: Soft cap on the number of ``uint8`` entries any gather materialises.
_ENTRY_BUDGET = 1 << 25

#: Soft cap on the ``uint64`` image words one canonical-minimum chunk
#: holds: two ``n = 6`` tables (92 160 words, 720 KiB, plus a half-size
#: scratch array), 24 at ``n = 5``, 240 at ``n = 4``.  Per table on a
#: 2-core x86 host (Xeon, 2 MiB L2 per core), ``n = 6`` took about
#: 0.13 ms alone, 0.11 ms in chunks of two or three and 0.11-0.15 ms
#: in chunks of eight, which spill out of L2; ``n = 5`` about 17-20 us
#: and ``n = 4`` about 3 us per table at any chunk size from half to
#: eight times this one.
_WORD_BUDGET = 92160


def _as_ints(tables) -> tuple[int | None, list[int]]:
    """Normalise a table batch to ``(n_or_None, raw integer list)``."""
    ints: list[int] = []
    n: int | None = None
    for item in tables:
        if isinstance(item, TruthTable):
            if n is None:
                n = item.n
            elif item.n != n:
                raise ValueError(f"mixed arities in batch: {item.n} != {n}")
            ints.append(item.bits)
        else:
            ints.append(int(item))
    return n, ints


def _batch_arity(tables, n: int | None) -> tuple[int, list[int]]:
    """Resolve a batch's arity: from its tables, else the explicit ``n``."""
    batch_n, ints = _as_ints(tables)
    if batch_n is None:
        if n is None:
            raise ValueError("pass n when tables are raw integers")
        batch_n = n
    elif n is not None and n != batch_n:
        raise ValueError(f"explicit n={n} != batch arity {batch_n}")
    return batch_n, ints


def bit_matrix(n: int, ints: Sequence[int]) -> np.ndarray:
    """``[B, 2**n]`` ``uint8`` bit matrix of raw integer tables.

    Row ``b``, column ``m`` holds bit ``m`` of table ``b`` — the
    unpacked form every gather operates on.  One conversion to
    little-endian ``uint64`` words, no per-row numpy.
    """
    if n > MAX_KERNEL_VARS:
        raise ValueError(f"kernels serve n <= {MAX_KERNEL_VARS}, got n={n}")
    size = 1 << n
    words = np.array(ints, dtype="<u8").reshape(-1)
    matrix = np.unpackbits(
        words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    return matrix[:, :size]


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``[..., 2**n]`` bit array back to ``uint64`` tables.

    The inverse of :func:`bit_matrix` along the last axis; works for any
    leading shape (the gather primitives pack ``[B, T, 2**n]`` blocks).
    """
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.shape[-1] < 8:
        pad = np.zeros(
            packed.shape[:-1] + (8 - packed.shape[-1],), dtype=np.uint8
        )
        packed = np.concatenate([packed, pad], axis=-1)
    return (
        np.ascontiguousarray(packed)
        .view("<u8")
        .reshape(packed.shape[:-1])
    )


def apply_pairwise(
    tables,
    transforms: TransformColumns,
    n: int | None = None,
) -> np.ndarray:
    """Image of each table under its own transform: ``[K]`` ``uint64``.

    ``result[k]`` is row ``k`` of ``transforms`` applied to
    ``tables[k]``: one gather maps row ``k`` of the bit matrix through
    that row's index map (its permutation's gather-table row, found by
    one vectorized lookup, XOR its input phase), so a whole batch of
    witnesses is checked with one call.
    """
    batch_n, ints = _batch_arity(tables, n)
    if len(transforms) != len(ints):
        raise ValueError(
            f"{len(ints)} tables but {len(transforms)} transforms"
        )
    bits = bit_matrix(batch_n, ints)
    if not ints:
        return np.zeros(0, dtype=np.uint64)
    wrong = transforms.ns != batch_n
    if wrong.any():
        raise ValueError(
            f"transform arity {transforms.ns[wrong][0]} != table arity "
            f"{batch_n}"
        )
    table = gather_table(batch_n)
    maps = table.index_maps(
        table.rows_for(transforms.perms[:, :batch_n]), transforms.input_phases
    )
    images = pack_rows(np.take_along_axis(bits, maps, axis=1))
    images ^= transforms.output_phases.astype(np.uint64) * np.uint64(
        bitops.table_mask(batch_n)
    )
    return images


def orbit_chunks(
    table: TruthTable,
    include_output: bool = True,
) -> Iterator[np.ndarray]:
    """Stream the exhaustive orbit of one table as ``uint64`` chunks.

    Concatenated, the chunks enumerate the images of *every* transform
    in :func:`repro.core.transforms.all_transforms` order (output phase
    slowest, then permutation, then input phase) — ``2**(n+1) * n!``
    entries with multiplicity, ``2**n * n!`` without output negation.
    Streaming bounds the live ``uint8`` gather intermediates; the packed
    chunks themselves are small.
    """
    n = table.n
    gt = gather_table(n)
    bits = bit_matrix(n, [table.bits])
    mask = np.uint64(bitops.table_mask(n))
    size = gt.table_size
    perm_block = max(1, _ENTRY_BUDGET // (size * size))
    outputs = (0, 1) if include_output else (0,)
    for output_phase in outputs:
        for start in range(0, gt.num_perms, perm_block):
            maps = gt.group_index_maps(slice(start, start + perm_block))
            packed = pack_rows(bits[:, maps])[0]
            yield packed ^ mask if output_phase else packed


def orbit(
    table: TruthTable,
    include_output: bool = True,
) -> np.ndarray:
    """The full exhaustive orbit of one table as a ``uint64`` array.

    For ``n <= 4`` this is a single gather (at most 768 entries); for
    ``n = 5, 6`` the computation streams through :func:`orbit_chunks`
    and only the packed result (<= 92 160 words) is materialised.
    """
    return np.concatenate(
        list(orbit_chunks(table, include_output))
    )


def flip_input(words: np.ndarray, var, n: int) -> np.ndarray:
    """Packed ``n``-input tables ``words`` with input ``var`` negated.

    Negating ``x_v`` swaps each word's ``2**v``-bit blocks where
    ``x_v = 0`` and ``x_v = 1``.  ``var`` is one input or an integer
    array of inputs broadcasting against ``words``.
    """
    shifts, lows = _flip_masks(n)
    shift, low = shifts[var], lows[var]
    return ((words >> shift) & low) | ((words & low) << shift)


@lru_cache(maxsize=None)
def _flip_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(shifts, lows)`` per input ``v``: the block width ``2**v`` and
    the minterms of an ``n``-input table with ``x_v = 0``, as ``uint64``."""
    shifts = np.array([1 << v for v in range(n)], dtype=np.uint64)
    full = bitops.table_mask(n)
    lows = np.array(
        [full & ~bitops.var_mask(n, v) for v in range(n)], dtype=np.uint64
    )
    shifts.setflags(write=False)
    lows.setflags(write=False)
    return shifts, lows


def _np_image_words(
    gt: GatherTable, ints: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Every NP image (no output negation) of each table, chunked.

    Yields ``(start, words)`` with ``words`` of shape ``[chunk, n! * 2**n]``
    for the rows ``ints[start : start + chunk]``.  Column ``p + n! * j``
    is the image under permutation ``perms[p]`` followed by flipping the
    *image* variables set in ``j``.  The ``n!`` permuted words come from
    the variable-swap chain of :func:`_swap_chain_words`, reordered by
    :func:`_swap_chain_order` into ``perms`` order; each variable
    ``i`` then doubles the columns in place with one word-level swap of
    the ``2**i``-bit blocks where ``x_i = 0`` and ``x_i = 1``, written
    through ``out=`` into the preallocated chunk and one half-size
    scratch array.  In :class:`~repro.core.transforms.NPNTransform`
    terms the input phase of column ``j`` has bit ``i`` equal to bit
    ``perms[p][i]`` of ``j``.

    Every chunk is written into the same buffer, so a caller reduces
    ``words`` before it advances the iterator (or copies it).
    """
    n = gt.n
    group = gt.np_group_order
    shifts, lows = _flip_masks(n)
    chunk = max(1, min(len(ints), _WORD_BUDGET // group))
    buffer = np.empty((chunk, group), dtype=np.uint64)
    scratch = np.empty((chunk, group >> 1), dtype=np.uint64)
    for start in range(0, len(ints), chunk):
        rows = np.array(ints[start : start + chunk], dtype=np.uint64)
        words = buffer[: len(rows)]
        np.take(
            _swap_chain_words(n, rows),
            _swap_chain_order(n),
            axis=1,
            out=words[:, : gt.num_perms],
        )
        width = gt.num_perms
        for shift, low in zip(shifts, lows):
            src, tmp = words[:, :width], scratch[: len(rows), :width]
            dst = words[:, width : 2 * width]
            np.right_shift(src, shift, out=dst)
            np.bitwise_and(dst, low, out=dst)
            np.bitwise_and(src, low, out=tmp)
            np.left_shift(tmp, shift, out=tmp)
            np.bitwise_or(dst, tmp, out=dst)
            width *= 2
        yield start, words


def _swap_chain_words(n: int, rows: np.ndarray) -> np.ndarray:
    """``[B, n!]`` permuted words of ``rows`` in the swap chain's order.

    Level ``j = 1 .. n-1`` turns the images over the first ``j`` inputs
    into those over ``j + 1``: each word is kept, then swapped input
    ``x_j`` with each ``x_k``, ``k < j``.  A swap is one delta swap,
    ``t = ((w >> d) ^ w) & m; w ^ t ^ (t << d)`` with ``d = 2**j - 2**k``
    and ``m`` the minterms with ``x_k = 1, x_j = 0``, broadcast over the
    whole level at once.
    """
    words = rows[:, None]
    for shifts, masks, spreads in _swap_levels(n):
        kept = words[:, None, :]
        t = kept >> shifts
        t ^= kept
        t &= masks
        t *= spreads
        level = t ^ kept
        words = level.reshape(len(rows), -1)
    return words


@lru_cache(maxsize=None)
def _swap_levels(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """``(shifts, masks, spreads)`` of each chain level ``j = 1 .. n-1``.

    Row ``0`` of each ``[j + 1, 1]`` ``uint64`` column keeps the word (a
    zero mask); row ``k + 1`` swaps ``x_k`` with ``x_j``: shift
    ``d = 2**j - 2**k``, mask of the minterms with ``x_k = 1, x_j = 0``
    and spread ``2**d + 1``.  The masked bits and their shifted copies
    never overlap, so ``t * (2**d + 1) == t ^ (t << d)``.
    """
    full = bitops.table_mask(n)
    levels = []
    for j in range(1, n):
        shifts = [0] + [(1 << j) - (1 << k) for k in range(j)]
        masks = [0] + [
            bitops.var_mask(n, k) & full & ~bitops.var_mask(n, j)
            for k in range(j)
        ]
        spreads = [(1 << d) + 1 for d in shifts]
        level = tuple(
            np.array(column, dtype=np.uint64)[:, None]
            for column in (shifts, masks, spreads)
        )
        for column in level:
            column.setflags(write=False)
        levels.append(level)
    return tuple(levels)


@lru_cache(maxsize=None)
def _swap_chain_order(n: int) -> np.ndarray:
    """``[n!]`` index: entry ``p`` is the chain column of ``perms[p]``.

    Read off by running the chain on the projections ``x_0 .. x_{n-1}``:
    under ``perms[p]`` projection ``x_i`` becomes ``x_{perms[p][i]}``.
    """
    projections = [bitops.var_mask(n, i) for i in range(n)]
    chain = _swap_chain_words(n, np.array(projections, dtype=np.uint64))
    column_of = {
        tuple(projections.index(word) for word in images): column
        for column, images in enumerate(chain.T.tolist())
    }
    order = np.array(
        [column_of[tuple(perm)] for perm in gather_table(n).perms.tolist()],
        dtype=np.intp,
    )
    order.setflags(write=False)
    return order


def canonical_min(
    tables: Iterable,
    n: int | None = None,
) -> np.ndarray:
    """Batched exhaustive canonical minimum: ``[B]`` ``uint64``.

    Entry ``b`` is the smallest truth table in the full NPN orbit of
    ``tables[b]`` — the canonical form of
    :func:`repro.baselines.exact_enum.exact_npn_canonical`, for the
    whole batch at once.  The NP images come from the word-level
    doublings of ``_np_image_words``; output negation needs no array of
    its own, because the smallest negated image is ``mask ^ max``.
    """
    batch_n, ints = _batch_arity(tables, n)
    gt = gather_table(batch_n)
    mask = np.uint64(bitops.table_mask(batch_n))
    best = np.empty(len(ints), dtype=np.uint64)
    for start, words in _np_image_words(gt, ints):
        best[start : start + len(words)] = np.minimum(
            words.min(axis=1), words.max(axis=1) ^ mask
        )
    return best


def canonical_min_transforms(
    tables: Iterable,
    n: int | None = None,
) -> tuple[np.ndarray, TransformColumns]:
    """:func:`canonical_min` plus, per table, a transform reaching it.

    Returns ``(minima, transforms)`` where row ``b`` of ``transforms``
    maps ``tables[b]`` onto ``minima[b]`` — the argmin witness of the
    same word array :func:`canonical_min` reduces, decoded for the whole
    batch in one :func:`decode_images` pass.  The inverse transform maps
    the canonical representative back onto the table (the learn-on-miss
    witness).
    """
    batch_n, ints = _batch_arity(tables, n)
    gt = gather_table(batch_n)
    mask = np.uint64(bitops.table_mask(batch_n))
    minima = np.empty(len(ints), dtype=np.uint64)
    columns = np.empty(len(ints), dtype=np.intp)
    outputs = np.empty(len(ints), dtype=bool)
    for start, words in _np_image_words(gt, ints):
        stop = start + len(words)
        low_col = words.argmin(axis=1)
        high_col = words.argmax(axis=1)
        rows = np.arange(len(words))
        low = words[rows, low_col]
        negated = words[rows, high_col] ^ mask
        output = negated < low
        minima[start:stop] = np.where(output, negated, low)
        columns[start:stop] = np.where(output, high_col, low_col)
        outputs[start:stop] = output
    image_flips, perm_rows = np.divmod(columns, gt.num_perms)
    return minima, decode_images(gt.perms[perm_rows], image_flips, outputs)


def decode_images(perms, image_flips, outputs) -> TransformColumns:
    """The transforms reaching NP images decoded like kernel columns.

    Row ``k``'s image permutes the table by ``perms[k]`` (``[K, n]``),
    then flips the *image* variables set in ``image_flips[k]``, then
    negates the output if ``outputs[k]``.  Input ``i`` of the table
    reads image variable ``perms[k, i]``, so its input-phase bit is bit
    ``perms[k, i]`` of ``image_flips[k]``.
    """
    perms = np.asarray(perms, dtype=np.intp)
    flips = np.asarray(image_flips, dtype=np.int64)
    bits = (flips[:, None] >> perms) & 1
    phases = (bits << np.arange(perms.shape[1])).sum(axis=1, dtype=np.int64)
    return TransformColumns.of_arity(perms.shape[1], perms, phases, outputs)
