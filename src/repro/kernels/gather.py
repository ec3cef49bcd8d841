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
(45 KiB at ``n = 6``).  Tables are built on first use, memory-cached per
process, and — when a cache directory is provided (the class library
passes ``<library dir>/kernels``) — lazily persisted to disk as an
``.npz`` so later processes skip the construction entirely.  A missing,
stale, or corrupted cache file is silently rebuilt; persistence is an
optimisation, never a correctness dependency.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from pathlib import Path

import numpy as np

__all__ = [
    "MAX_KERNEL_VARS",
    "GatherTable",
    "gather_table",
    "clear_memory_cache",
]

#: Largest arity the gather kernels serve: ``2**6 = 64`` bits — one word.
MAX_KERNEL_VARS = 6

#: On-disk cache format version (bump on any layout change).
CACHE_FORMAT_VERSION = 1

_CACHE_FILE_TEMPLATE = "gather_n{n}.v{version}.npz"

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

    def row_of(self, perm: tuple[int, ...]) -> int:
        """Row index of a permutation (O(1) dict lookup)."""
        return _perm_rows(self.n)[tuple(perm)]

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


def gather_table(n: int, cache_dir: str | Path | None = None) -> GatherTable:
    """The (memory-cached) gather table for arity ``n``.

    With ``cache_dir`` the table is additionally persisted under that
    directory on first construction and loaded from it on later cold
    starts.  Passing different ``cache_dir`` values for the same ``n``
    is safe — the content is a pure function of ``n``.
    """
    if not 0 <= n <= MAX_KERNEL_VARS:
        raise ValueError(
            f"gather kernels serve n <= {MAX_KERNEL_VARS}, got n={n}"
        )
    table = _TABLES.get(n)
    if table is None:
        table = _load_from_disk(n, cache_dir)
        if table is None:
            table = _build_table(n)
            _persist_to_disk(table, cache_dir)
        _TABLES[n] = table
    elif cache_dir is not None:
        # Memory hit: still make sure the on-disk copy exists (lazily).
        _persist_to_disk(table, cache_dir)
    return table


def clear_memory_cache() -> None:
    """Drop all memory-cached tables (test isolation helper)."""
    _TABLES.clear()
    _perm_rows.cache_clear()


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
def _perm_rows(n: int) -> dict[tuple[int, ...], int]:
    """Permutation tuple -> row index, in construction order."""
    return {
        perm: row
        for row, perm in enumerate(itertools.permutations(range(n)))
    }


# ----------------------------------------------------------------------
# Disk persistence
# ----------------------------------------------------------------------


def _cache_path(n: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / _CACHE_FILE_TEMPLATE.format(
        n=n, version=CACHE_FORMAT_VERSION
    )


def _load_from_disk(n: int, cache_dir: str | Path | None) -> GatherTable | None:
    if cache_dir is None:
        return None
    path = _cache_path(n, cache_dir)
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            perms = data["perms"].astype(np.uint8)
            maps = data["perm_maps"].astype(np.uint8)
        if perms.shape == (factorial(n), n) and maps.shape == (
            factorial(n),
            1 << n,
        ):
            return _frozen_table(n, perms, maps)
    except Exception:  # corrupted cache: rebuild, never fail
        pass
    # A bad file would otherwise block persistence forever (the writer
    # skips existing paths) — drop it so the rebuild can be re-published.
    try:
        path.unlink()
    except OSError:
        pass
    return None


def _persist_to_disk(table: GatherTable, cache_dir: str | Path | None) -> None:
    if cache_dir is None:
        return
    path = _cache_path(table.n, cache_dir)
    if path.exists():
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Per-writer temp name: concurrent cold starts (several daemons
        # sharing one kernel cache) must not truncate each other's
        # half-written file before one of them atomically publishes it.
        temp = path.with_suffix(f".{os.getpid()}.tmp")
        with open(temp, "wb") as handle:
            np.savez(handle, perms=table.perms, perm_maps=table.perm_maps)
        temp.replace(path)  # atomic publish: readers never see partial files
    except OSError:
        pass  # read-only library dir: memory cache still serves everything
