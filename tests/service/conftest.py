"""Shared fixtures of the service-layer tests.

One exhaustive n<=3 library serves the whole module scope — building it
classifies 256 + 16 + 4 functions, cheap enough per session and small
enough that every query can be re-answered offline for parity checks.

Service metrics live in the process-global registry and accumulate
across the session, so tests read them as before/after deltas.
"""

from collections import Counter

import pytest

from repro import obs
from repro.library import build_library
from repro.workloads.library_corpus import exhaustive_tables


@pytest.fixture(scope="session")
def tiny_library():
    library = build_library([*exhaustive_tables(2), *exhaustive_tables(3)])
    assert library.num_classes == 4 + 14
    return library


@pytest.fixture()
def batch_sizes():
    """Batches dispatched since the test began, as ``{bucket bound: n}``.

    Returns a function reading the growth of each bucket of the
    process-wide ``repro_service_batch_size`` histogram; a batch of
    size ``s`` lands in the smallest power-of-two bound ``>= s``.
    """
    histogram = obs.registry().get("repro_service_batch_size")

    def per_bucket() -> Counter:
        series = histogram.series()
        counts, below = Counter(), 0
        for bound, cumulative in series["buckets"].items():
            counts[bound] = cumulative - below
            below = cumulative
        counts["+Inf"] = series["count"] - below
        return counts

    before = per_bucket()
    return lambda: per_bucket() - before
