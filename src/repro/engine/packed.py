"""Packed truth-table batches: many functions in one ``uint64`` matrix.

A :class:`PackedTables` holds ``batch`` same-arity truth tables as a
``[batch, W]`` ``uint64`` array with ``W = max(1, 2**n / 64)`` — the
layout of :func:`repro.core.bitops.to_words` stacked row-wise.  Every
kernel in this module acts on *all rows at once*, which is what turns
Algorithm 1's per-function loop into a handful of NumPy passes.

The word-level tricks mirror the big-int kernel in
:mod:`repro.core.bitops` exactly:

* a variable ``i < 6`` lives *inside* each word, so flipping it is the
  same masked-shift trick, applied elementwise;
* a variable ``i >= 6`` spans words, so flipping it swaps word blocks at
  stride ``2**(i-6)`` — pure array reshuffling, no bit arithmetic.

Property tests assert each kernel against its big-int twin.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

import numpy as np

from repro.core import bitops
from repro.core.truth_table import TruthTable

__all__ = [
    "PackedTables",
    "popcount_words",
    "popcount_rows",
    "masked_popcount_rows",
    "flip_input_packed",
    "sensitivity_words_packed",
    "unpack_word_bits",
]

_WORD_INDEX_BITS = 6  # log2(bitops.WORD_BITS)


class PackedTables:
    """An immutable batch of ``n``-variable truth tables in packed form.

    The canonical bulk representation of the batched engine: row ``b`` is
    :func:`repro.core.bitops.to_words` of function ``b``.
    """

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray) -> None:
        expected = bitops.words_per_table(n)
        # Own a frozen little-endian copy: a caller-held alias mutated after
        # the overflow check could otherwise poison downstream signature
        # caches, and the byte-view kernels assume '<u8' word layout.
        words = np.array(words, dtype="<u8", order="C", copy=True)
        if words.ndim != 2 or words.shape[1] != expected:
            raise ValueError(
                f"packed batch for n={n} needs shape [batch, {expected}], "
                f"got {words.shape}"
            )
        if (1 << n) < bitops.WORD_BITS:
            overflow = words & ~np.uint64(bitops.table_mask(n))
            if overflow.any():
                raise ValueError(f"table value does not fit in 2^{n} bits")
        words.setflags(write=False)
        self.n = n
        self.words = words

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def from_tables(cls, tables: Sequence[TruthTable]) -> "PackedTables":
        """Pack a homogeneous sequence of :class:`TruthTable` objects."""
        tables = list(tables)
        if not tables:
            raise ValueError("cannot pack an empty batch")
        n = tables[0].n
        for tt in tables:
            if tt.n != n:
                raise ValueError(f"mixed arities in batch: {tt.n} != {n}")
        return cls.from_ints(n, (tt.bits for tt in tables))

    @classmethod
    def from_ints(cls, n: int, bits: Iterable[int]) -> "PackedTables":
        """Pack raw big-int tables (one serialisation pass, no per-row numpy)."""
        nbytes = bitops.words_per_table(n) * 8
        buffer = b"".join(value.to_bytes(nbytes, "little") for value in bits)
        if not buffer:
            raise ValueError("cannot pack an empty batch")
        words = np.frombuffer(buffer, dtype="<u8").reshape(-1, nbytes // 8)
        return cls(n, words)

    def to_ints(self) -> list[int]:
        """Row tables as big ints (inverse of :meth:`from_ints`)."""
        nbytes = self.words.shape[1] * 8
        raw = self.words.astype("<u8", copy=False).tobytes()
        mask = bitops.table_mask(self.n)
        return [
            int.from_bytes(raw[off : off + nbytes], "little") & mask
            for off in range(0, len(raw), nbytes)
        ]

    def to_tables(self) -> list[TruthTable]:
        """Row tables as :class:`TruthTable` values."""
        n = self.n
        return [TruthTable(n, bits) for bits in self.to_ints()]

    def table(self, index: int) -> TruthTable:
        """One row as a :class:`TruthTable`."""
        return TruthTable(self.n, bitops.from_words(self.words[index], self.n))

    def __len__(self) -> int:
        return self.words.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedTables(n={self.n}, batch={len(self)})"


# ----------------------------------------------------------------------
# Word kernels
# ----------------------------------------------------------------------


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a ``uint64`` array, as ``int64``."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.int64)
    # Fallback for older NumPy: byte-wise lookup table (byte order is
    # irrelevant to the per-word sum, but the view needs contiguity).
    bytes_view = np.ascontiguousarray(words).view(np.uint8)
    return bitops.popcount_table(8)[bytes_view].reshape(*words.shape, 8).sum(
        axis=-1, dtype=np.int64
    )


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Satisfy count of every row of a ``[batch, W]`` packed array."""
    return popcount_words(words).sum(axis=-1)


def masked_popcount_rows(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Row popcounts under one or many masks.

    ``masks`` is ``[W]`` (one mask, result ``[batch]``) or ``[M, W]``
    (``M`` masks, result ``[batch, M]``) — the bulk form of the paper's
    masked-popcount cofactor counting.
    """
    if masks.ndim == 1:
        return popcount_rows(words & masks)
    return popcount_words(words[:, None, :] & masks[None, :, :]).sum(axis=-1)


def flip_input_packed(words: np.ndarray, n: int, i: int) -> np.ndarray:
    """Batched :func:`repro.core.bitops.flip_input` on a packed array."""
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    if i < _WORD_INDEX_BITS:
        mask_hi = _inword_var_mask(min(n, _WORD_INDEX_BITS), i)
        shift = np.uint64(1 << i)
        hi = words & mask_hi
        lo = words & ~mask_hi
        return (hi >> shift) | (lo << shift)
    stride = 1 << (i - _WORD_INDEX_BITS)
    batch, width = words.shape
    blocks = words.reshape(batch, width // (2 * stride), 2, stride)
    return blocks[:, :, ::-1, :].reshape(batch, width)


def sensitivity_words_packed(words: np.ndarray, n: int, i: int) -> np.ndarray:
    """Batched :func:`repro.core.bitops.sensitivity_word`."""
    return words ^ flip_input_packed(words, n, i)


def unpack_word_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack a raw ``[batch, W]`` array to ``[batch, 2**n]`` bits.

    The byte view must see little-endian word layout for minterm order to
    hold on any host; ``astype('<u8')`` is a no-op on little-endian
    machines and a byteswap copy on big-endian ones.
    """
    bytes_view = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    bits = np.unpackbits(bytes_view, axis=1, bitorder="little")
    return bits[:, : 1 << n]


@lru_cache(maxsize=None)
def _inword_var_mask(n: int, i: int) -> np.uint64:
    """``var_mask(n, i)`` for a variable that fits inside one word."""
    return np.uint64(bitops.var_mask(n, i))
