"""Bit-level kernel for truth tables stored as arbitrary-precision integers.

A truth table of an ``n``-variable Boolean function is a Python ``int`` of
``2**n`` bits.  Bit ``m`` holds ``f((m)_2)`` where ``(m)_2`` is the
little-endian binary code of ``m`` — variable ``x_0`` is the least
significant bit of the minterm index.  This is exactly the convention of
the paper (Section II-A) with variables renumbered from 0.

Everything in this module is a pure function on ``(table, n)`` pairs.  The
routines follow the bitwise-trick style the paper adopts from Hacker's
Delight [17]: variable negation is a masked shift, variable swap is a delta
swap, cofactor counting is a masked popcount.  All operations are O(1) in
the number of big-int words except where noted.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "table_mask",
    "var_mask",
    "popcount",
    "flip_output",
    "flip_input",
    "flip_inputs",
    "swap_inputs",
    "permute_inputs",
    "permute_inputs_reference",
    "apply_transform_reference",
    "project_cofactor",
    "insert_variable",
    "sensitivity_word",
    "to_bit_array",
    "to_words",
    "from_words",
    "words_per_table",
    "mask_words",
    "popcount_table",
    "MAX_VARS",
    "WORD_BITS",
]

#: Practical upper bound on variable count.  2**20-bit integers are still
#: fine, but the quadratic-ish helpers (index tables) stop here.
MAX_VARS = 20

#: Machine-word width of the packed representation used by repro.engine.
WORD_BITS = 64


@lru_cache(maxsize=None)
def table_mask(n: int) -> int:
    """All-ones mask covering a ``2**n``-bit truth table."""
    _check_n(n)
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def var_mask(n: int, i: int) -> int:
    """Mask of minterm positions where variable ``i`` equals 1.

    The pattern is the truth table of the projection function ``x_i``:
    alternating runs of ``2**i`` zeros and ``2**i`` ones, e.g. for
    ``n=3, i=1`` the mask is ``0b11001100``.
    """
    _check_n(n)
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    period = 1 << (i + 1)
    block = ((1 << (1 << i)) - 1) << (1 << i)  # one period: low zeros, high ones
    mask = 0
    for start in range(0, 1 << n, period):
        mask |= block << start
    return mask


def popcount(x: int) -> int:
    """Number of set bits (satisfy count when ``x`` is a truth table)."""
    return x.bit_count()


def flip_output(table: int, n: int) -> int:
    """Truth table of ``NOT f`` (output negation)."""
    return table ^ table_mask(n)


def flip_input(table: int, n: int, i: int) -> int:
    """Truth table of ``f`` with variable ``i`` replaced by its complement.

    Swaps every pair of table positions that differ only in index bit ``i``.
    """
    mask_hi = var_mask(n, i)
    shift = 1 << i
    return ((table & mask_hi) >> shift) | ((table & ~mask_hi & table_mask(n)) << shift)


def flip_inputs(table: int, n: int, phase: int) -> int:
    """Apply :func:`flip_input` for every variable whose bit is set in ``phase``.

    ``phase`` is an ``n``-bit selective-negation word — the paper's
    ``(¬)X`` notation encoded as an integer.
    """
    for i in range(n):
        if (phase >> i) & 1:
            table = flip_input(table, n, i)
    return table


def swap_inputs(table: int, n: int, i: int, j: int) -> int:
    """Truth table of ``f`` with variables ``i`` and ``j`` exchanged.

    Implemented as a delta swap: table positions with ``x_i=1, x_j=0``
    exchange with their mirror ``x_i=0, x_j=1`` positions, which sit at a
    fixed offset ``2**j - 2**i``.
    """
    if i == j:
        return table
    if i > j:
        i, j = j, i
    shift = (1 << j) - (1 << i)
    # Positions with x_i = 1 and x_j = 0 (the "low" side of each swap pair).
    low_side = var_mask(n, i) & ~var_mask(n, j)
    delta = ((table >> shift) ^ table) & low_side
    return table ^ delta ^ (delta << shift)


def permute_inputs(table: int, n: int, perm: tuple[int, ...]) -> int:
    """Reorder variables so that position ``i`` of the result reads ``perm[i]``.

    Semantics: ``g = permute_inputs(f, n, perm)`` satisfies
    ``g(x_0, ..., x_{n-1}) = f(x_perm[0], ..., x_perm[n-1])``.

    Decomposed into O(n) delta swaps (selection placement), so the cost is
    O(n) big-int operations rather than a ``2**n`` Python loop.
    """
    _check_perm(perm, n)
    # Applying swap_inputs(h, e, p) to h = permute(f, E) yields
    # permute(f, tau o E) where tau is the value transposition (e p).
    # Greedily fix slot k: swap the value currently at slot k with the
    # value perm[k]; earlier slots are untouched because both values can
    # only occur at slots >= k.
    effective = list(range(n))  # effective[slot] = f-variable read at slot
    slot_of = list(range(n))  # slot_of[v] = slot where value v currently sits
    for slot in range(n):
        have = effective[slot]
        want = perm[slot]
        if have == want:
            continue
        table = swap_inputs(table, n, have, want)
        other_slot = slot_of[want]
        effective[slot], effective[other_slot] = want, have
        slot_of[want], slot_of[have] = slot, other_slot
    return table


def permute_inputs_reference(table: int, n: int, perm: tuple[int, ...]) -> int:
    """O(2**n) reference implementation of :func:`permute_inputs`."""
    _check_perm(perm, n)
    out = 0
    for m in range(1 << n):
        src = 0
        for i in range(n):
            if (m >> perm[i]) & 1:
                src |= 1 << i
        if (table >> src) & 1:
            out |= 1 << m
    return out


def apply_transform_reference(
    table: int,
    n: int,
    perm: tuple[int, ...],
    input_phase: int,
    output_phase: int,
) -> int:
    """O(2**n) reference for a full NPN transform.

    ``g(x) = output_phase XOR f(w)`` with ``w_i = x_perm[i] XOR phase_i``.
    The fast path lives in :mod:`repro.core.transforms`; this function is
    the oracle that property tests compare against.
    """
    _check_perm(perm, n)
    out = 0
    for m in range(1 << n):
        src = 0
        for i in range(n):
            bit = (m >> perm[i]) & 1
            bit ^= (input_phase >> i) & 1
            if bit:
                src |= 1 << i
        value = (table >> src) & 1
        value ^= output_phase & 1
        if value:
            out |= 1 << m
    return out


def project_cofactor(table: int, n: int, i: int, value: int) -> int:
    """Cofactor ``f|x_i=value`` as a ``2**(n-1)``-bit table over the rest.

    The remaining variables keep their relative order (variables above
    ``i`` shift down by one).  Cost: O(2**(n-1-i)) big-int operations.
    """
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    if value not in (0, 1):
        raise ValueError("cofactor value must be 0 or 1")
    step = 1 << i
    chunk = (1 << step) - 1
    src = table >> (step if value else 0)
    out = 0
    for b in range(1 << (n - 1 - i)) if n > i + 1 else range(1):
        out |= ((src >> (b * 2 * step)) & chunk) << (b * step)
    return out if n > 1 else out & 1


def insert_variable(table: int, n: int, i: int) -> int:
    """Inverse-ish of :func:`project_cofactor`: add a don't-care variable.

    Returns the ``2**(n+1)``-bit table of the ``(n+1)``-variable function
    that ignores its new variable ``i`` and computes ``f`` on the others.
    """
    if not 0 <= i <= n:
        raise ValueError(f"insertion index {i} out of range for n={n}")
    step = 1 << i
    chunk = (1 << step) - 1
    out = 0
    for b in range(1 << (n - i)) if n > i else range(1):
        piece = (table >> (b * step)) & chunk
        out |= (piece | (piece << step)) << (b * 2 * step)
    return out


def sensitivity_word(table: int, n: int, i: int) -> int:
    """Bit vector marking words where ``f`` is sensitive at variable ``i``.

    Bit ``m`` of the result is 1 iff ``f(m) != f(m ^ 2**i)`` — the paper's
    Definition 3 evaluated at every word simultaneously.  The popcount of
    this word is twice the (integer) influence of variable ``i``.
    """
    return table ^ flip_input(table, n, i)


def to_bit_array(table: int, n: int) -> np.ndarray:
    """Truth table as a ``uint8`` numpy array of length ``2**n`` (bit ``m`` first)."""
    _check_n(n)
    nbytes = max(1, (1 << n) // 8)
    raw = np.frombuffer(table.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n]


def words_per_table(n: int) -> int:
    """Number of 64-bit words a ``2**n``-bit truth table packs into.

    Tables of fewer than 64 bits occupy the low bits of a single word.
    """
    _check_n(n)
    return max(1, (1 << n) // WORD_BITS)


def to_words(table: int, n: int) -> np.ndarray:
    """Truth table as a little-endian ``uint64`` word array.

    Word ``w`` holds minterms ``64*w .. 64*w + 63`` (minterm ``m`` at bit
    ``m % 64``) — the packed representation the batched engine operates
    on.  Length is :func:`words_per_table`.
    """
    count = words_per_table(n)
    raw = table.to_bytes(count * 8, "little")
    return np.frombuffer(raw, dtype="<u8").copy()


def from_words(words: np.ndarray, n: int) -> int:
    """Inverse of :func:`to_words`."""
    count = words_per_table(n)
    arr = np.ascontiguousarray(np.asarray(words, dtype="<u8"))
    if arr.shape != (count,):
        raise ValueError(f"expected {count} words for n={n}, got {arr.shape}")
    return int.from_bytes(arr.tobytes(), "little") & table_mask(n)


def mask_words(mask: int, n: int) -> np.ndarray:
    """Arbitrary ``2**n``-bit mask in packed word form (cacheable helper)."""
    return to_words(mask & table_mask(n), n)


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """``popcount_table(n)[m]`` is the Hamming weight of index ``m < 2**n``."""
    _check_n(n)
    counts = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        counts += (np.arange(1 << n) >> i) & 1
    return counts


def _check_n(n: int) -> None:
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"variable count {n} outside supported range 0..{MAX_VARS}")


def _check_perm(perm: tuple[int, ...], n: int) -> None:
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"{perm!r} is not a permutation of range({n})")
