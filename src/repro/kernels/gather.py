"""Per-arity transform gather tables — the precomputed heart of the kernels.

For ``n <= 6`` a truth table fits one ``uint64``, and applying an NPN
transform is a *bit permutation* of that word: the image's bit ``m`` is
``output_phase XOR f(apply_index(m))`` (see
:meth:`repro.core.transforms.NPNTransform.apply_index`).  With the table
unpacked to a ``2**n``-entry bit vector, every transform application is
therefore a single numpy *gather* through a precomputed index array —
no shifts, no big-int arithmetic, no Python loop over assignments.

Two structural facts keep the precomputed state tiny:

* the index map of ``(perm, phase)`` is the index map of ``(perm, 0)``
  XOR ``phase`` (flipping input ``i`` flips bit ``i`` of the source
  index), so only the ``n!`` *permutation* maps are stored — input
  phases are derived by a vectorized XOR at gather time;
* output negation never touches the index map at all — it is one XOR
  with the full table mask *after* packing.

A :class:`GatherTable` therefore holds ``[n!, 2**n]`` ``uint8`` indices
(45 KiB at ``n = 6``).  Tables are built on first use (about 2 ms at
``n = 6``, well under 1 ms below) and memory-cached per process; nothing
is written to disk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_KERNEL_VARS",
    "GatherTable",
    "gather_table",
    "clear_memory_cache",
]

#: Largest arity the gather kernels serve: ``2**6 = 64`` bits — one word.
MAX_KERNEL_VARS = 6

#: Process-wide memory cache: ``n -> GatherTable``.
_TABLES: dict[int, "GatherTable"] = {}


@dataclass(frozen=True)
class GatherTable:
    """Precomputed permutation index maps for one arity.

    Attributes:
        n: arity the table serves (``0 <= n <= MAX_KERNEL_VARS``).
        perms: ``[n!, n]`` ``uint8`` — every permutation, in
            :func:`itertools.permutations` order (the order
            :func:`repro.core.transforms.all_transforms` enumerates).
        perm_maps: ``[n!, 2**n]`` ``uint8`` — row ``p`` maps image
            minterm ``m`` to the source minterm read under permutation
            ``perms[p]`` with zero input phase.
    """

    n: int
    perms: np.ndarray
    perm_maps: np.ndarray

    @property
    def num_perms(self) -> int:
        return self.perm_maps.shape[0]

    @property
    def table_size(self) -> int:
        return self.perm_maps.shape[1]

    @property
    def np_group_order(self) -> int:
        """Order of the NP (no output negation) group: ``2**n * n!``."""
        return self.num_perms << self.n

    def rows_for(self, perms: np.ndarray) -> np.ndarray:
        """Row of each ``[..., n]`` variable vector, ``-1`` where one
        repeats a variable: a vectorized lexicographic-rank lookup."""
        ranks, place = _perm_ranks(self.n)
        return ranks[perms @ place]

    def index_maps(self, rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """``[C, 2**n]`` gather maps for ``C`` (perm row, input phase) pairs.

        ``rows`` and ``phases`` are parallel integer arrays; the result's
        row ``c`` maps image minterms through ``(perms[rows[c]],
        phases[c])``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        phases = np.asarray(phases, dtype=np.uint8)
        return self.perm_maps[rows] ^ phases[:, None]

    def group_index_maps(self, perm_slice: slice) -> np.ndarray:
        """All-phase maps for a block of permutations, phase-minor order.

        Returns ``[P_block * 2**n, 2**n]`` rows ordered exactly like
        :func:`repro.core.transforms.all_transforms` restricted to the
        block: permutation-major, input-phase-minor.
        """
        block = self.perm_maps[perm_slice]
        phases = np.arange(self.table_size, dtype=np.uint8)
        combined = block[:, None, :] ^ phases[None, :, None]
        return combined.reshape(-1, self.table_size)


def gather_table(n: int) -> GatherTable:
    """The (memory-cached) gather table for arity ``n``."""
    if not 0 <= n <= MAX_KERNEL_VARS:
        raise ValueError(
            f"gather kernels serve n <= {MAX_KERNEL_VARS}, got n={n}"
        )
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES[n] = _build_table(n)
    return table


def clear_memory_cache() -> None:
    """Drop all memory-cached tables (test isolation helper)."""
    _TABLES.clear()
    _perm_ranks.cache_clear()


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def _build_table(n: int) -> GatherTable:
    """Compute the ``[n!, 2**n]`` permutation maps in one vectorized pass."""
    size = 1 << n
    if n == 0:
        perms = np.zeros((1, 0), dtype=np.uint8)
        maps = np.zeros((1, 1), dtype=np.uint8)
        return _frozen_table(0, perms, maps)
    perms = np.array(
        list(itertools.permutations(range(n))), dtype=np.uint8
    )
    # m_bits[m, j] = bit j of minterm m; the source index under perm p is
    # src[p, m] = sum_i m_bits[m, perms[p, i]] << i (apply_index, phase 0).
    m_bits = (
        (np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1
    ).astype(np.uint8)
    gathered = m_bits[:, perms.astype(np.intp)]  # [size, n!, n]
    pow2 = (1 << np.arange(n, dtype=np.uint32))
    maps = (
        (gathered.astype(np.uint32) * pow2).sum(axis=2).T.astype(np.uint8)
    )  # [n!, size]
    return _frozen_table(n, perms, maps)


def _frozen_table(n: int, perms: np.ndarray, maps: np.ndarray) -> GatherTable:
    perms = np.ascontiguousarray(perms)
    maps = np.ascontiguousarray(maps)
    perms.setflags(write=False)
    maps.setflags(write=False)
    return GatherTable(n=n, perms=perms, perm_maps=maps)


@lru_cache(maxsize=None)
def _perm_ranks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ranks, place)``: the row of ``perm`` is ``ranks[perm @ place]``
    (``place`` reads it as a base-``n`` number; ``-1``: no permutation)."""
    place = n ** np.arange(n)
    ranks = np.full(n**n, -1, dtype=np.int16)  # n! <= 720
    perms = gather_table(n).perms.astype(np.intp)
    ranks[perms @ place] = np.arange(len(perms))
    ranks.setflags(write=False)
    return ranks, place
