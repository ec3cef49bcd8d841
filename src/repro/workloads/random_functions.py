"""Random and structured truth-table sets.

Two generators reproduce the paper's synthetic inputs:

* :func:`random_tables` — uniformly random functions (general stress);
* :func:`consecutive_tables` — "randomly generate a fixed number of
  Boolean functions with truth tables in consecutive binary encoding"
  (Section V-C, the Fig. 5 runtime-stability workload): a random starting
  point followed by consecutive integer truth tables.  Consecutive tables
  are highly structured and correlated, which is exactly what makes
  canonical-form methods' runtime fluctuate.
"""

from __future__ import annotations

import random

from repro.core import bitops
from repro.core.truth_table import TruthTable

__all__ = [
    "random_tables",
    "iter_random_tables",
    "consecutive_tables",
]


def random_tables(n: int, count: int, seed: int) -> list[TruthTable]:
    """``count`` uniformly random ``n``-variable functions (deterministic)."""
    return list(iter_random_tables(n, count, seed))


def iter_random_tables(n: int, count: int, seed: int):
    """Lazy :func:`random_tables`: the identical sequence, O(1) memory.

    For workloads too large to materialise — same seed, same tables,
    delivered one at a time.
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield TruthTable.random(n, rng)


def consecutive_tables(
    n: int, count: int, seed: int | None = None, start: int | None = None
) -> list[TruthTable]:
    """Consecutive-integer truth tables, as in the paper's Fig. 5 workload.

    Either ``start`` is given explicitly or it is drawn from ``seed``.
    Wraps around the table space if the range overruns it.
    """
    size = bitops.table_mask(n) + 1
    if start is None:
        if seed is None:
            raise ValueError("provide either a start value or a seed")
        start = random.Random(seed).randrange(size)
    return [TruthTable(n, (start + k) % size) for k in range(count)]
