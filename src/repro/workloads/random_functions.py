"""Random and structured truth-table sets.

Two generators reproduce the paper's synthetic inputs:

* :func:`random_tables` — uniformly random functions (general stress);
* :func:`consecutive_tables` — "randomly generate a fixed number of
  Boolean functions with truth tables in consecutive binary encoding"
  (Section V-C, the Fig. 5 runtime-stability workload): a random starting
  point followed by consecutive integer truth tables.  Consecutive tables
  are highly structured and correlated, which is exactly what makes
  canonical-form methods' runtime fluctuate.

:func:`seeded_equivalent_tables` additionally plants known NPN orbits
inside a random set — used by tests and accuracy benches where ground
truth about equivalences must be known by construction.
"""

from __future__ import annotations

import random

from repro.core import bitops
from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable

__all__ = [
    "random_tables",
    "iter_random_tables",
    "consecutive_tables",
    "seeded_equivalent_tables",
    "hit_miss_queries",
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


def hit_miss_queries(
    n: int, hits: int, misses: int, seed: int
) -> tuple[list[TruthTable], list[TruthTable]]:
    """``(library corpus, shuffled query mix)`` for matcher parity tests.

    Every *hit* query is a fresh random NPN image of a corpus function —
    so resolving it requires an actual witness search, not the identity
    short-circuit — and every *miss* is an independent random function
    (at ``n >= 5`` random draws essentially never collide with the
    corpus signatures).  The mix is deterministically shuffled.
    """
    rng = random.Random(seed)
    corpus = random_tables(n, hits, seed)
    queries = [tt.apply(random_transform(n, rng)) for tt in corpus]
    queries += random_tables(n, misses, seed + 1)
    rng.shuffle(queries)
    return corpus, queries


def seeded_equivalent_tables(
    n: int, orbits: int, members_per_orbit: int, seed: int
) -> tuple[list[TruthTable], int]:
    """A shuffled set with a known number of NPN classes.

    Draws ``orbits`` random functions, adds ``members_per_orbit - 1``
    random NPN images of each, and shuffles.  Returns ``(tables,
    upper_bound)`` where ``upper_bound`` is the number of distinct seed
    orbits — the true class count is at most that (random seeds may
    collide into one class, which the exact engine will discover).
    """
    rng = random.Random(seed)
    tables: list[TruthTable] = []
    for _ in range(orbits):
        seed_function = TruthTable.random(n, rng)
        tables.append(seed_function)
        for _ in range(members_per_orbit - 1):
            tables.append(seed_function.apply(random_transform(n, rng)))
    rng.shuffle(tables)
    return tables, orbits
