"""Batched NP-invariant variable keys — vectorized twin of the matcher's.

:func:`repro.baselines.matcher.variable_keys` computes, per variable,
``(influence, sorted cofactor-count pair, sorted pair of per-polarity
sensitivity histograms)``.  The scalar path costs a sensitivity profile
plus ``2n`` bincounts *per table*; on the library match path that is the
single largest per-query cost once signatures are batched.

This module computes the same information for a whole batch in a
handful of numpy passes over the ``[B, 2**n]`` bit matrix, and encodes
each variable's key as a fixed-width **int64 row** instead of a nested
tuple: ``(influence, cofactor min, cofactor max, lex-min histogram,
lex-max histogram)`` with each histogram packed MSB-first into one word
(counts are at most ``2**n <= 64``, so 7 bits per level suffice).  Two
variables have equal matcher keys **iff** their key rows are equal —
the parity suite pins this — which lets the matcher build its candidate
lists from plain integer comparisons with no per-variable Python
assembly.  All of it is integer numpy on the calling thread: the
histograms are two ``np.bincount`` calls over (row, variable, level)
cells, with no BLAS call whose worker threads would spin beside it.

The polarity handling is shared with the matcher: under output negation
the sensitivity profile (hence influence and both histograms) is
unchanged and only the cofactor counts complement within their face
size, so :func:`complement_key_matrices` derives the encoding of every
``~f`` in the batch without touching the tables again.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.kernels.gather import MAX_KERNEL_VARS
from repro.kernels.ops import bit_matrix

__all__ = ["KeyMatrices", "key_matrices", "complement_key_matrices", "KEY_WIDTH"]

#: Columns of a key row: influence, cofactor min/max, two packed histograms.
KEY_WIDTH = 5

#: Bits per histogram level in the packed encoding (counts fit 7 bits).
_HIST_LEVEL_BITS = 7

#: Rows per chunk for the histogram temporaries; at ``n = 6`` a chunk's
#: cell array is ``[chunk, 192]`` ``intp`` (1.5 MiB at 1,024 rows).  On a
#: 2-core x86 host (Python 3.11, numpy 2.4) 16,384 ``n = 6`` rows took
#: a median 58-60 ms in chunks of 512 to 2,048 rows, 68 ms at 4,096,
#: 75 ms at 256 and 80 ms at 8,192, whose temporaries spill out of L2
#: (9 interleaved calls each).
_KEYS_CHUNK = 1024


class KeyMatrices(NamedTuple):
    """Vectorized variable-key state for a same-arity batch.

    Attributes:
        counts: ``[B]`` satisfy counts.
        keys: ``[B, n, KEY_WIDTH]`` int64 key rows (equal rows <=> equal
            matcher variable keys).
        cofactors: ``[B, n, 2]`` oriented cofactor counts
            ``(count(x_i=0), count(x_i=1))`` — the orientation the
            sorted key columns deliberately forget; the per-(slot,
            variable) polarity pruning needs it.
    """

    counts: np.ndarray
    keys: np.ndarray
    cofactors: np.ndarray


def key_matrices(n: int, ints: list[int]) -> KeyMatrices:
    """Key rows for every table of a same-arity batch (see module doc)."""
    if n > MAX_KERNEL_VARS:
        raise ValueError(f"kernels serve n <= {MAX_KERNEL_VARS}, got n={n}")
    if not ints:
        return KeyMatrices(
            np.zeros(0, dtype=np.int64),
            np.zeros((0, n, KEY_WIDTH), dtype=np.int64),
            np.zeros((0, n, 2), dtype=np.int64),
        )
    parts = [
        _chunk_matrices(n, ints[start : start + _KEYS_CHUNK])
        for start in range(0, len(ints), _KEYS_CHUNK)
    ]
    if len(parts) == 1:
        return parts[0]
    return KeyMatrices(
        np.concatenate([p.counts for p in parts]),
        np.concatenate([p.keys for p in parts]),
        np.concatenate([p.cofactors for p in parts]),
    )


def complement_key_matrices(matrices: KeyMatrices, n: int) -> KeyMatrices:
    """Key state of every ``~f`` in the batch, derived without recompute.

    The sensitivity profile of ``~f`` equals that of ``f`` (XOR with the
    constant mask cancels), so influence and both histograms carry over;
    a cofactor count ``c`` complements to ``2**(n-1) - c`` within its
    half of the table.
    """
    half = 1 << (n - 1) if n else 1
    size = 1 << n
    keys = matrices.keys.copy()
    keys[:, :, 1] = half - matrices.keys[:, :, 2]
    keys[:, :, 2] = half - matrices.keys[:, :, 1]
    return KeyMatrices(
        size - matrices.counts, keys, half - matrices.cofactors
    )


def _chunk_matrices(n: int, ints: list[int]) -> KeyMatrices:
    size = 1 << n
    bits = bit_matrix(n, ints)  # [B, size]
    batch = bits.shape[0]
    counts = bits.sum(axis=1, dtype=np.int64)
    keys = np.zeros((batch, n, KEY_WIDTH), dtype=np.int64)
    cofactors = np.zeros((batch, n, 2), dtype=np.int64)
    if n == 0:
        return KeyMatrices(counts, keys, cofactors)

    minterms = np.arange(size)
    var_of, minterm_of = _set_bits(n)

    # Sensitivity words per variable (bits ^ x_i-flipped bits), influence
    # and the per-word sensitivity profile (at most n), all in one pass.
    profile = np.zeros((batch, size), dtype=np.uint8)
    for i in range(n):
        sens = bits ^ np.take(bits, minterms ^ (1 << i), axis=1)
        keys[:, i, 0] = sens.sum(axis=1, dtype=np.int64) >> 1
        profile += sens

    ones_side = (
        np.take(bits, minterm_of, axis=1)
        .reshape(batch, n, size >> 1)
        .sum(axis=2, dtype=np.int64)
    )  # [B, n]
    neg_side = counts[:, None] - ones_side
    cofactors[:, :, 0] = neg_side
    cofactors[:, :, 1] = ones_side
    np.minimum(neg_side, ones_side, out=keys[:, :, 1])
    np.maximum(neg_side, ones_side, out=keys[:, :, 2])

    # hist[b, i, s] = |{m : varbit_i(m) = 1, profile[b, m] = s}| and the
    # zero-side complement, from integer bincounts over (row, variable,
    # level) cells — packed MSB-first so lexicographic order of the
    # histogram tuples is numeric order of the packed words.
    levels = n + 1
    row_base = np.arange(batch, dtype=np.intp)[:, None] * levels
    cells = np.take(profile, minterm_of, axis=1).astype(np.intp)
    cells += var_of * levels
    cells += row_base * n
    hist_pos = np.bincount(
        cells.ravel(), minlength=batch * n * levels
    ).reshape(batch, n, levels)
    totals = np.bincount(
        (row_base + profile).ravel(), minlength=batch * levels
    ).reshape(batch, 1, levels)
    hist_neg = totals - hist_pos
    shifts = (_HIST_LEVEL_BITS * np.arange(n, -1, -1)).astype(np.int64)
    packed_pos = (hist_pos << shifts).sum(axis=2)
    packed_neg = (hist_neg << shifts).sum(axis=2)
    np.minimum(packed_neg, packed_pos, out=keys[:, :, 3])
    np.maximum(packed_neg, packed_pos, out=keys[:, :, 4])
    return KeyMatrices(counts, keys, cofactors)


@lru_cache(maxsize=None)
def _set_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(var_of, minterm_of)``: every ``(i, m)`` with bit ``i`` of ``m``
    set, variable-major — ``n * 2**(n-1)`` pairs, as ``[P]`` ``intp``."""
    minterms = np.arange(1 << n)
    var_of, minterm_of = np.nonzero(
        (minterms[None, :] >> np.arange(n)[:, None]) & 1
    )
    var_of.setflags(write=False)
    minterm_of.setflags(write=False)
    return var_of, minterm_of
