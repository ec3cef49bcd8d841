"""Batched MSV signatures: flat integer rows for a whole packed batch.

This is the vectorized twin of :func:`repro.core.msv.compute_msv`, which
stays the oracle.  For one arity every MSV part has a fixed length, so a
key is one flat integer row, and the lexicographic order of the nested
key tuples is the order of those rows.  A chunk of
:class:`~repro.engine.packed.PackedTables` rows is signed in array
passes over the whole chunk:

* cofactor satisfy counts are masked popcounts, sorted per row
  (Definitions 1-2);
* the sensitivity profile and the influences come from one unpacked bit
  matrix, XOR-ing the two halves of every variable's stride
  (Definitions 3-5);
* every sensitivity-level indicator — each level on each 0/1 side — is
  stacked with the minterm axis first and goes through *one* integer
  Walsh-Hadamard butterfly; the squared spectra, folded by Krawtchouk
  columns, count OSDV's pairs by Hamming distance (Definitions 9-10);
* the complemented function's row is derived, not recomputed: cofactor
  counts complement within their face (and so reverse their order),
  influence and the unsplit parts stay, and the 0/1-split parts swap
  sides.  The output-negation rule of Theorems 3-4 then picks each
  row's phase with one vectorized lexicographic compare.

The chosen rows are the key: :func:`row_bytes` turns each into one
``bytes`` object, which the library chains, the exact classifier's
buckets and the fabric's shard key use as is.  Only where the paper's
nested :attr:`MixedSignature.key` is printed or pinned does
:func:`nested_keys` slice a row into those tuples, by a layout cached
per ``(n, parts)``.  Flattened, ``compute_msv``'s keys equal the rows;
the tests check that per part selection.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from operator import itemgetter

import numpy as np

from repro.core import bitops
from repro.engine.packed import (
    PackedTables,
    masked_popcount_rows,
    popcount_rows,
    unpack_word_bits,
)

__all__ = ["signature_keys", "row_bytes", "nested_keys"]

#: Entries of the largest per-chunk work array: the ``[2**n, rows, levels]``
#: indicator stack.  Keeps a chunk's temporaries cache-sized (about 270
#: rows at n = 6) and bounds the mask-blocked cofactor passes.
_CHUNK_ENTRIES = 1 << 18

#: Parts built from the unpacked bit matrix.
_POINT_PARTS = frozenset({"oiv", "osv", "osv_full", "osdv", "osdv_full", "spectral"})

# Layout kinds of one part inside a flat row.
_SCALAR, _TUPLE, _PAIR = 0, 1, 2


def signature_keys(packed: PackedTables, parts: tuple[str, ...]) -> np.ndarray:
    """Phase-canonical MSV rows of every table: ``[rows, width]`` int64.

    ``parts`` is a normalized selection
    (:func:`repro.core.msv.normalize_parts`).  The batch is cut into
    cache-sized chunks; each chunk is one set of array passes.
    """
    n = packed.n
    layout = _layout(n, parts)
    step = _chunk_rows(n)
    chunks = [
        _chosen_rows(packed.words[start : start + step], n, parts, layout)
        for start in range(0, len(packed), step)
    ]
    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return np.empty((0, layout.width), dtype=np.int64)
    return np.concatenate(chunks)


def row_bytes(rows: np.ndarray) -> list[bytes]:
    """Each row's little-endian bytes: the hashable key of one table.

    The byte order is fixed, so a key hashes alike on every platform.
    Rows of different arities may share a width; callers that mix
    arities pair each key with its ``n``.
    """
    rows = np.ascontiguousarray(rows, dtype="<i8")
    if not rows.shape[1]:
        return [b""] * len(rows)
    return rows.view(f"V{rows.shape[1] * 8}").ravel().tolist()


def nested_keys(n: int, parts: tuple[str, ...], keys: list[bytes]) -> list[tuple]:
    """The nested ``compute_msv`` key tuples of :func:`row_bytes` keys."""
    layout = _layout(n, parts)
    rows = np.frombuffer(b"".join(keys), dtype="<i8").reshape(len(keys), layout.width)
    return _nest(rows.tolist(), layout.spans)


def _chunk_rows(n: int) -> int:
    """Rows per chunk: the indicator stack holds ``2(n+1)+1`` levels."""
    return max(1, _CHUNK_ENTRIES // ((2 * n + 3) << n))


class _Layout:
    """Where each part of a ``(n, parts)`` key sits in the flat row."""

    __slots__ = ("width", "spans", "offsets")

    def __init__(self, n: int, parts: tuple[str, ...]) -> None:
        levels = n + 1
        lengths = {
            "c0": 1,
            "ocv1": comb(n, 1) << 1,
            "ocv2": comb(n, 2) << 2,
            "ocv3": comb(n, 3) << 3,
            "oiv": n,
            "osv": 2 * levels,
            "osv_full": levels,
            "osdv": 2 * levels * n,
            "osdv_full": levels * n,
            "spectral": 1 << n,
        }
        #: part name -> (start, stop) columns.
        self.offsets: dict[str, tuple[int, int]] = {}
        #: (kind, start, middle, stop) per part, in key order.
        self.spans: list[tuple[int, int, int, int]] = []
        start = 0
        for name in parts:
            stop = start + lengths[name]
            self.offsets[name] = (start, stop)
            if name == "c0":
                kind = _SCALAR
            elif name in ("osv", "osdv"):
                kind = _PAIR
            else:
                kind = _TUPLE
            self.spans.append((kind, start, (start + stop) // 2, stop))
            start = stop
        self.width = start


@lru_cache(maxsize=64)
def _layout(n: int, parts: tuple[str, ...]) -> _Layout:
    return _Layout(n, parts)


def _nest(rows: list[list[int]], spans) -> list[tuple]:
    """Slice flat rows into the nested key tuples of ``compute_msv``."""
    columns = []
    for kind, start, middle, stop in spans:
        if kind == _SCALAR:
            columns.append(map(itemgetter(start), rows))
        elif kind == _TUPLE:
            columns.append(map(tuple, map(itemgetter(slice(start, stop)), rows)))
        else:
            columns.append(
                zip(
                    map(tuple, map(itemgetter(slice(start, middle)), rows)),
                    map(tuple, map(itemgetter(slice(middle, stop)), rows)),
                )
            )
    return list(zip(*columns))


class _PhaseRows:
    """The ``[batch, width]`` flat rows of both output phases."""

    __slots__ = ("zero", "one", "offsets")

    def __init__(self, batch: int, layout: _Layout) -> None:
        self.zero = np.empty((batch, layout.width), dtype=np.int64)
        self.one = np.empty_like(self.zero)
        self.offsets = layout.offsets

    def put(self, name: str, zero: np.ndarray, one: np.ndarray | None = None) -> None:
        """Phase-0 columns of a part, and phase 1's when they differ."""
        start, stop = self.offsets[name]
        self.zero[:, start:stop] = zero
        self.one[:, start:stop] = zero if one is None else one

    def put_sides(self, name: str, one_side: np.ndarray, zero_side: np.ndarray) -> None:
        """A 0/1-split part: ``(1-side, 0-side)``, swapped in phase 1."""
        start, stop = self.offsets[name]
        middle = (start + stop) // 2
        self.zero[:, start:middle] = self.one[:, middle:stop] = one_side
        self.zero[:, middle:stop] = self.one[:, start:middle] = zero_side


def _chosen_rows(
    words: np.ndarray, n: int, parts: tuple[str, ...], layout: _Layout
) -> np.ndarray:
    """``[batch, width]`` flat keys, each in its canonical output phase."""
    batch = words.shape[0]
    size = 1 << n
    need = set(parts)
    rows = _PhaseRows(batch, layout)

    counts = popcount_rows(words)
    if "c0" in need:
        rows.put("c0", counts[:, None], size - counts[:, None])
    # Phase 1 complements every cofactor within its face, which reverses
    # the ascending order of the sorted counts.
    for name, ell in (("ocv1", 1), ("ocv2", 2), ("ocv3", 3)):
        if name in need:
            cof = _masked_counts(words, _cofactor_masks(n, ell))
            cof.sort(axis=1)
            rows.put(name, cof, (size >> ell) - cof[:, ::-1])

    if need & _POINT_PARTS:
        # Minterm axis first from here on: every per-variable and
        # butterfly step then works on contiguous blocks of whole rows.
        bits = np.ascontiguousarray(unpack_word_bits(words, n).T)
        profile, influences = _profile(bits, n)
        if "oiv" in need:
            influences.sort(axis=1)
            rows.put("oiv", influences)
        _put_point_parts(rows, need, bits, profile, n)

    chosen = rows.zero
    flip = 2 * counts > size
    tied = np.flatnonzero(2 * counts == size)
    if tied.size and layout.width:
        # Balanced rows keep the lexicographically smaller phase: the
        # first differing column decides, and equal rows keep phase 0.
        diff = rows.one[tied] - chosen[tied]
        first = (diff != 0).argmax(axis=1)
        flip[tied] = diff[np.arange(tied.size), first] < 0
    if flip.any():
        chosen[flip] = rows.one[flip]
    return chosen


def _profile(bits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sensitivity profile ``[2**n, batch]`` and influences ``[batch, n]``.

    ``bits`` is ``[2**n, batch]``.  Minterm ``x`` is sensitive to
    variable ``i`` when its partner ``x ^ 2**i`` has the other value; one
    gather of every partner gives all ``n`` sensitivity maps at once.
    Each sensitive pair is seen from both ends, hence the halving.
    """
    sensitive = bits[_partners(n)] ^ bits
    profile = sensitive.sum(axis=0, dtype=np.uint8)
    influences = sensitive.sum(axis=1, dtype=np.int64) >> 1
    return profile, influences.T


@lru_cache(maxsize=None)
def _partners(n: int) -> np.ndarray:
    """``[n, 2**n]`` minterm indices ``x ^ 2**i``."""
    minterms = np.arange(1 << n, dtype=np.intp)
    bits = np.left_shift(1, np.arange(n, dtype=np.intp))
    return _frozen(minterms[None, :] ^ bits[:, None])


def _put_point_parts(rows: _PhaseRows, need: set, bits, profile, n: int) -> None:
    """OSV, OSDV and the spectral part, from one stacked transform."""
    size, batch = bits.shape
    levels = n + 1
    # Level code: the sensitivity level on the 0 side, level + n + 1 on
    # the 1 side, so one histogram and one indicator stack cover both.
    codes = profile + bits * np.uint8(levels)
    if need & {"osv", "osv_full"}:
        offsets = np.arange(batch, dtype=np.intp) * (2 * levels)
        histogram = np.bincount(
            (codes + offsets).ravel(), minlength=batch * 2 * levels
        ).reshape(batch, 2 * levels)
        zero_side, one_side = histogram[:, :levels], histogram[:, levels:]
        if "osv" in need:
            rows.put_sides("osv", one_side, zero_side)
        if "osv_full" in need:
            rows.put("osv_full", zero_side + one_side)

    need_osdv = bool(need & {"osdv", "osdv_full"})
    stacked = 2 * levels if need_osdv else 0
    columns = stacked + ("spectral" in need)
    if not columns:
        return
    dtype = np.int32 if 8**n < 2**31 else np.int64
    flat = np.zeros(size * batch * columns, dtype=dtype)
    if need_osdv:
        # One-hot: minterm x of row b sets indicator codes[x, b].
        flat[np.arange(0, flat.size, columns) + codes.ravel()] = 1
    stack = flat.reshape(size, batch, columns)
    if "spectral" in need:
        # The ±1 encoding: its transform is the classical Walsh spectrum.
        stack[:, :, stacked] = 1 - 2 * bits.astype(dtype)
    spectra = _fwht_minterms_first(flat.reshape(size, -1)).reshape(stack.shape)

    if "spectral" in need:
        spectral = np.abs(spectra[:, :, stacked].T).astype(np.int64)
        spectral.sort(axis=1)
        rows.put("spectral", spectral)
    if "osdv_full" in need:
        full = spectra[:, :, :levels] + spectra[:, :, levels:stacked]
        rows.put("osdv_full", _pair_distances(full, n))
    if "osdv" in need:
        sides = _pair_distances(spectra[:, :, :stacked], n)
        rows.put_sides("osdv", sides[:, levels * n :], sides[:, : levels * n])


def _pair_distances(spectra: np.ndarray, n: int) -> np.ndarray:
    """Unordered pair counts by distance ``1..n`` per stacked indicator.

    ``spectra`` is ``[2**n, batch, k]`` (Walsh transforms of ``k``
    indicators per row).  Ordered pairs at distance ``j`` are
    ``sum_z spectrum[z]**2 * K_j[z] / 2**n`` for the Krawtchouk column
    ``K_j`` (Definition 10 via the XOR auto-correlation).  Returns
    ``[batch, k * n]``: indicator-major, distance-minor.
    """
    size, batch, k = spectra.shape
    if n == 0:
        return np.zeros((batch, 0), dtype=np.int64)
    squared = np.square(spectra).reshape(size, -1)
    fold = _distance_fold(n).astype(squared.dtype, copy=False)
    ordered = np.einsum("zj,zr->jr", fold, squared)
    ordered >>= n + 1  # / 2**n, then ordered -> unordered pairs
    return ordered.reshape(n, batch, k).transpose(1, 2, 0).reshape(batch, k * n)


def _fwht_minterms_first(out: np.ndarray) -> np.ndarray:
    """Unnormalised integer Walsh-Hadamard transform along axis 0.

    ``out`` is ``[2**n, columns]`` with the minterm axis first, so every
    butterfly step adds and subtracts contiguous blocks of whole rows
    (``right' = left - right`` is computed as ``left' - 2 * right``).
    A C-contiguous ``out`` is transformed in place and returned; any
    other layout is transformed in a contiguous copy, so callers must
    use the return value.
    """
    out = np.ascontiguousarray(out)
    size = out.shape[0]
    h = 1
    while h < size:
        blocks = out.reshape(size // (2 * h), 2, h * out.shape[1])
        left = blocks[:, 0]
        right = blocks[:, 1]
        left += right
        right *= -2
        right += left
        h *= 2
    return out


def _masked_counts(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Row popcounts under a mask stack, blocked along the mask axis.

    Wide stacks (``ocv3`` at large ``n``) would otherwise materialise a
    ``[chunk, M, W]`` AND matrix of many GB; blocking keeps every
    intermediate under the entry budget regardless of ``M``.
    """
    batch, width = words.shape
    total = masks.shape[0]
    block = max(1, _CHUNK_ENTRIES // max(1, batch * width))
    if block >= total:
        return masked_popcount_rows(words, masks)
    out = np.empty((batch, total), dtype=np.int64)
    for start in range(0, total, block):
        stop = start + block
        out[:, start:stop] = masked_popcount_rows(words, masks[start:stop])
    return out


@lru_cache(maxsize=8)  # [2**n, n] int64 — large at high n, keep a few live
def _distance_fold(n: int) -> np.ndarray:
    """``[2**n, n]`` matrix folding squared spectra to pair-distance counts.

    Column ``j-1`` is the Walsh transform of the weight-``j`` indicator
    (a Krawtchouk column): ``spectrum**2 @ fold // 2**n`` yields ordered
    pair counts at distances ``1..n``.  Magnitudes stay below ``8**n``.
    """
    weights = bitops.popcount_table(n)
    onehot = np.zeros((1 << n, n + 1), dtype=np.int64)
    onehot[np.arange(1 << n), weights] = 1
    folded = _fwht_minterms_first(onehot)
    return _frozen(np.ascontiguousarray(folded[:, 1:]))


@lru_cache(maxsize=16)  # [M, W] stacks grow combinatorially with n and ell
def _cofactor_masks(n: int, ell: int) -> np.ndarray:
    """``[C(n,ell) * 2**ell, W]`` packed masks in ``cofactor_counts`` order."""
    masks = []
    full = bitops.table_mask(n)
    for subset in itertools.combinations(range(n), ell):
        for values in range(1 << ell):
            mask = full
            for k, i in enumerate(subset):
                var = bitops.var_mask(n, i)
                mask &= var if (values >> k) & 1 else ~var
            masks.append(bitops.mask_words(mask, n))
    if not masks:
        return _frozen(np.zeros((0, bitops.words_per_table(n)), dtype=np.uint64))
    return _frozen(np.stack(masks))


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: lru_cache hands out shared objects."""
    array.setflags(write=False)
    return array
