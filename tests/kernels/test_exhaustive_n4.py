"""Exhaustive n=4 acceptance: batched canonical minima vs the library path.

The classical result pins the arity: the 65 536 four-variable functions
fall into exactly 222 NPN classes.  This test computes the canonical
minimum of *every* function through the gather kernel and cross-checks
the complete classification pipeline: every signature bucket is
canonical-minimum-pure, and the exhaustive library's exact
representatives are exactly those minima.
"""

import numpy as np

from repro.engine import BatchedClassifier
from repro.kernels import canonical_min
from repro.library import library_from_result
from repro.workloads import exhaustive_tables

N4_CLASS_COUNT = 222


def test_exhaustive_n4_canonical_minima_match_library_path():
    tables = list(exhaustive_tables(4))
    minima = canonical_min(tables)
    assert len(set(minima.tolist())) == N4_CLASS_COUNT

    result = BatchedClassifier().classify(tables)
    assert result.num_classes == N4_CLASS_COUNT

    minimum_of = dict(zip((t.bits for t in tables), minima.tolist()))
    library = library_from_result(result)
    assert library.num_classes == N4_CLASS_COUNT
    representative_bits = {
        entry.representative.bits for entry in library.classes.values()
    }
    assert representative_bits == set(minimum_of.values())

    for members in result.groups.values():
        bucket_minima = {minimum_of[tt.bits] for tt in members}
        # Never-split + exhaustive coverage: one orbit minimum per bucket.
        assert len(bucket_minima) == 1
        entry = library.lookup(members[0])
        assert entry is not None
        # The stored representative is the orbit minimum of the bucket.
        assert entry.representative.bits == bucket_minima.pop()
        assert entry.size == len(members)

    # The 222 orbits partition the space: orbit sizes sum to 2^16.
    assert sum(e.size for e in library.classes.values()) == 1 << 16
