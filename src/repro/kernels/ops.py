"""Vectorized transform primitives on top of the gather tables.

Four primitives, all operating on batches and all exact:

* :func:`apply_transforms` — every table × every transform in one numpy
  gather (``[B, T]`` ``uint64`` images);
* :func:`orbit` / :func:`orbit_chunks` — the full exhaustive NPN orbit
  of one table, as one array for small arities and as streamed chunks
  for ``n = 5, 6`` where the intermediate bit matrices are what costs
  memory (the packed orbit itself is at most 92 160 words);
* :func:`canonical_min` — the batched exhaustive canonical minimum: the
  lexicographically smallest table over each input's whole orbit,
  byte-identical to
  :func:`repro.baselines.exact_enum.exact_npn_canonical`;
* :func:`canonical_min_transforms` — the same minima plus the transform
  reaching each one (an argmin witness, decoded from the winning
  column).

Everything routes through the same two moves: unpack tables to a
``[B, 2**n]`` bit matrix once, gather it through precomputed index maps,
and pack the gathered bits back to ``uint64`` rows.  Output negation is
a single XOR with the full table mask after packing.  The canonical
minimum gathers only the ``n!`` permutations that way; the ``2**n``
input phases of each permuted word are ``n`` word-level doublings
(swap the halves where ``x_i = 0`` and ``x_i = 1``), so the whole NP
orbit is built with shifts and masks on ``uint64`` words.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

import numpy as np

from repro.core import bitops
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.kernels.gather import MAX_KERNEL_VARS, GatherTable, gather_table

__all__ = [
    "bit_matrix",
    "pack_rows",
    "flip_input",
    "transform_index_maps",
    "apply_transforms",
    "orbit",
    "orbit_chunks",
    "canonical_min",
    "canonical_min_transforms",
    "image_transform",
]

#: Soft cap on the number of ``uint8`` entries any gather materialises.
_ENTRY_BUDGET = 1 << 25

#: Soft cap on the ``uint64`` image words one canonical-minimum chunk
#: holds: one ``n = 6`` table (46 080 words, 360 KiB), 12 at ``n = 5``,
#: 120 at ``n = 4``.  Larger chunks measured slower per table at n = 6
#: (0.40 ms alone, 0.80 ms in pairs, 0.52 ms in eights on a 2-core x86
#: host), and no faster at n = 4 and 5.
_WORD_BUDGET = 46080


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
    unpacked form every gather operates on.  One serialisation pass, no
    per-row numpy.
    """
    if n > MAX_KERNEL_VARS:
        raise ValueError(f"kernels serve n <= {MAX_KERNEL_VARS}, got n={n}")
    size = 1 << n
    raw = b"".join(value.to_bytes(8, "little") for value in ints)
    matrix = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8),
        axis=1,
        bitorder="little",
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


def transform_index_maps(
    n: int, transforms: Sequence[NPNTransform]
) -> tuple[np.ndarray, np.ndarray]:
    """``([T, 2**n] uint8 gather maps, [T] uint8 output phases)``.

    Row ``t`` maps image minterms of ``transforms[t]`` to source
    minterms (input permutation and phase folded in); output negation is
    returned separately because it acts after packing.
    """
    table = gather_table(n)
    rows = np.fromiter(
        (table.row_of(t.perm) for t in transforms),
        dtype=np.intp,
        count=len(transforms),
    )
    phases = np.fromiter(
        (t.input_phase for t in transforms),
        dtype=np.uint8,
        count=len(transforms),
    )
    outputs = np.fromiter(
        (t.output_phase for t in transforms),
        dtype=np.uint8,
        count=len(transforms),
    )
    return table.index_maps(rows, phases), outputs


def apply_transforms(
    tables,
    transforms: Sequence[NPNTransform],
    n: int | None = None,
) -> np.ndarray:
    """Image of every table under every transform: ``[B, T]`` ``uint64``.

    ``result[b, t] == transforms[t].apply_table(tables[b], n)`` for all
    pairs — many tables × many transforms in one gather.  ``tables`` may
    be :class:`TruthTable` objects or raw integers (then ``n`` is
    required); all transforms must act on the same arity.
    """
    transforms = list(transforms)
    batch_n, ints = _batch_arity(tables, n)
    for t in transforms:
        if t.n != batch_n:
            raise ValueError(
                f"transform arity {t.n} != table arity {batch_n}"
            )
    size = 1 << batch_n
    bits = bit_matrix(batch_n, ints)
    out = np.empty((len(ints), len(transforms)), dtype=np.uint64)
    if not transforms:
        return out
    mask = np.uint64(bitops.table_mask(batch_n))
    chunk = max(1, _ENTRY_BUDGET // max(1, len(ints) * size))
    for start in range(0, len(transforms), chunk):
        stop = min(start + chunk, len(transforms))
        maps, outputs = transform_index_maps(batch_n, transforms[start:stop])
        packed = pack_rows(bits[:, maps])  # [B, chunk]
        flip = outputs.astype(bool)
        if flip.any():
            packed[:, flip] ^= mask
        out[:, start:stop] = packed
    return out


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
    *image* variables set in ``j``: only the ``n!`` permuted words are
    gathered bit by bit, and each variable ``i`` then doubles the columns
    with one word-level swap of the ``2**i``-bit blocks where ``x_i = 0``
    and ``x_i = 1``.  In :class:`~repro.core.transforms.NPNTransform`
    terms the input phase of column ``j`` has bit ``i`` equal to bit
    ``perms[p][i]`` of ``j``.
    """
    n = gt.n
    chunk = max(1, _WORD_BUDGET // gt.np_group_order)
    for start in range(0, len(ints), chunk):
        bits = bit_matrix(n, ints[start : start + chunk])
        words = pack_rows(bits[:, gt.perm_maps])  # [chunk, n!]
        for i in range(n):
            words = np.concatenate([words, flip_input(words, i, n)], axis=1)
        yield start, words


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
) -> tuple[np.ndarray, list[NPNTransform]]:
    """:func:`canonical_min` plus, per table, a transform reaching it.

    Returns ``(minima, transforms)`` with
    ``transforms[b].apply_table(tables[b], n) == minima[b]`` — the
    argmin witness of the same word array :func:`canonical_min` reduces,
    so the form costs nothing extra and its transform is one decode.
    The inverse transform maps the canonical representative back onto
    the table (the learn-on-miss witness).
    """
    batch_n, ints = _batch_arity(tables, n)
    gt = gather_table(batch_n)
    mask = np.uint64(bitops.table_mask(batch_n))
    minima = np.empty(len(ints), dtype=np.uint64)
    transforms: list[NPNTransform] = []
    for start, words in _np_image_words(gt, ints):
        low_col = words.argmin(axis=1)
        high_col = words.argmax(axis=1)
        rows = np.arange(len(words))
        low = words[rows, low_col]
        negated = words[rows, high_col] ^ mask
        output = negated < low
        minima[start : start + len(words)] = np.where(output, negated, low)
        columns = np.where(output, high_col, low_col)
        for column, flip in zip(columns.tolist(), output.tolist()):
            image_flips, perm_row = divmod(column, gt.num_perms)
            transforms.append(
                image_transform(gt.perms[perm_row].tolist(), image_flips, flip)
            )
    return minima, transforms


def image_transform(
    perm: Sequence[int], image_flips: int, output: int
) -> NPNTransform:
    """The transform reaching one NP image, decoded like a kernel column.

    The image permutes the table by ``perm``, then flips the *image*
    variables set in ``image_flips``, then negates the output if
    ``output``.  Input ``i`` of the table reads image variable
    ``perm[i]``, so its input-phase bit is bit ``perm[i]`` of
    ``image_flips``.
    """
    phase = 0
    for i, var in enumerate(perm):
        phase |= ((image_flips >> var) & 1) << i
    return NPNTransform(tuple(perm), phase, int(output))

