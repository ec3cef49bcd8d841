"""Miss-heavy query traffic for the learn-on-miss serving path.

The matcher parity tests (:func:`repro.workloads.hit_miss_queries`) lean
on hits — the expensive witness searches.  A *learning* daemon is
stressed by the opposite shape: queries whose signature class the
library has never seen, each of which mints a class and appends a WAL
record.  :func:`miss_heavy_queries` builds that traffic against a
concrete library — every generated miss is *verified* to miss (rejection
sampling against :meth:`ClassLibrary.lookup`), so the minted-class count
of a run is exact, not probabilistic.

:func:`with_repeats` then turns a query list into the convergence
workload: each query repeated ``repeats`` times in a deterministic
shuffle, so under ``--learn`` the first occurrence mints and every
repeat must resolve as a hit — the property the service-level learning
tests and the CI smoke assert.
"""

from __future__ import annotations

import random

from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.library.store import ClassLibrary

__all__ = ["miss_heavy_queries", "with_repeats"]

#: Rejection-sampling bound per miss; at any arity with spare signature
#: space this is never approached, and a saturated library (every class
#: of the arity stored) fails loudly instead of looping forever.
_MAX_DRAWS_PER_MISS = 10_000


def miss_heavy_queries(
    library: ClassLibrary,
    n: int,
    count: int,
    seed: int,
    miss_fraction: float = 0.8,
) -> list[TruthTable]:
    """``count`` queries at arity ``n``, ``miss_fraction`` of them misses.

    Misses are uniformly random functions re-drawn until their signature
    class is absent from ``library``; hits are random NPN images of
    stored representatives of arity ``n`` (requiring a witness search,
    not the identity short-circuit).  A library with no classes at ``n``
    gets all-miss traffic regardless of ``miss_fraction``.  The mix is
    deterministically shuffled: same arguments, same queries.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0.0 <= miss_fraction <= 1.0:
        raise ValueError(
            f"miss_fraction must be in [0, 1], got {miss_fraction}"
        )
    rng = random.Random(seed)
    reps = [e.representative for e in library.entries() if e.n == n]
    misses = count if not reps else round(count * miss_fraction)
    queries: list[TruthTable] = []
    for _ in range(misses):
        queries.append(_draw_miss(library, n, rng))
    for _ in range(count - misses):
        queries.append(rng.choice(reps).apply(random_transform(n, rng)))
    rng.shuffle(queries)
    return queries


def _draw_miss(
    library: ClassLibrary, n: int, rng: random.Random
) -> TruthTable:
    """One random function whose signature class the library lacks."""
    for _ in range(_MAX_DRAWS_PER_MISS):
        tt = TruthTable.random(n, rng)
        if library.lookup(tt) is None:
            return tt
    raise ValueError(
        f"could not draw a miss at n={n} in {_MAX_DRAWS_PER_MISS} tries — "
        f"the library covers (nearly) every signature class of the arity"
    )


def with_repeats(
    queries: list[TruthTable], repeats: int, seed: int
) -> list[TruthTable]:
    """Each query ``repeats`` times, deterministically shuffled.

    The shuffle interleaves classes rather than batching copies
    back-to-back, which is the realistic traffic shape for exercising
    the learn -> cache/match convergence.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    out = [tt for tt in queries for _ in range(repeats)]
    random.Random(seed).shuffle(out)
    return out
