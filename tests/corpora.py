"""Seeded test corpora with known NPN structure.

* :func:`seeded_equivalent_tables` plants known NPN orbits inside a
  random set, for tests where ground truth about equivalences must be
  known by construction (the golden class files are generated from it);
* :func:`hit_miss_queries` builds a library corpus and a shuffled mix of
  its NPN images and fresh functions, for matcher parity tests.
"""

from __future__ import annotations

import random

from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.workloads import random_tables


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
