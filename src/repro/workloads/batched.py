"""Packed-batch views of the workload generators.

The generators in :mod:`repro.workloads.random_functions` stay the single
source of truth for *which* functions a workload contains (their seeds
are part of the reproduction contract); these helpers deliver the same
deterministic sets already packed for :mod:`repro.engine`, plus a
splitter for mixed-arity workloads such as extracted cut functions.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.truth_table import TruthTable
from repro.engine.packed import PackedTables
from repro.workloads.random_functions import (
    consecutive_tables,
    random_tables,
    seeded_equivalent_tables,
)

__all__ = [
    "packed_random_tables",
    "packed_consecutive_tables",
    "packed_equivalent_tables",
    "pack_by_arity",
]


def packed_random_tables(n: int, count: int, seed: int) -> PackedTables:
    """:func:`~repro.workloads.random_functions.random_tables`, packed."""
    return PackedTables.from_tables(random_tables(n, count, seed))


def packed_consecutive_tables(
    n: int, count: int, seed: int | None = None, start: int | None = None
) -> PackedTables:
    """The Fig. 5 consecutive-encoding stress workload, packed."""
    return PackedTables.from_tables(consecutive_tables(n, count, seed, start))


def packed_equivalent_tables(
    n: int, orbits: int, members_per_orbit: int, seed: int
) -> tuple[PackedTables, int]:
    """Seeded NPN orbits, packed; returns ``(batch, class upper bound)``."""
    tables, bound = seeded_equivalent_tables(n, orbits, members_per_orbit, seed)
    return PackedTables.from_tables(tables), bound


def pack_by_arity(tables: Iterable[TruthTable]) -> dict[int, PackedTables]:
    """Split a mixed-arity workload into one packed batch per ``n``.

    Row order within each batch preserves the input order, so per-arity
    results can be zipped back against the original sequence.
    """
    by_arity: dict[int, list[TruthTable]] = {}
    for tt in tables:
        by_arity.setdefault(tt.n, []).append(tt)
    return {
        n: PackedTables.from_tables(group) for n, group in sorted(by_arity.items())
    }
