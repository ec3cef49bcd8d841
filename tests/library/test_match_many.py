"""Batched ``ClassLibrary.match_many`` parity with per-query ``match``."""

import random

import pytest

from repro.core.transforms import random_transform
from repro.kernels.gather import clear_memory_cache
from repro.library import build_library
from repro.workloads import random_tables


@pytest.fixture(autouse=True)
def fresh_kernel_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


@pytest.fixture()
def mixed_library():
    tables = random_tables(4, 60, 1) + random_tables(5, 60, 2) + random_tables(
        6, 60, 3
    )
    return build_library(tables), tables


class TestBatchedMatchParity:
    def test_match_many_equals_singles_with_witness_search(self, mixed_library):
        """Grouped bulk matching returns exactly what per-query match
        does — across arities, hits, misses, and planted orbits."""
        library, tables = mixed_library
        rng = random.Random(17)
        queries = []
        for tt in tables[::5]:
            queries.append(tt.apply(random_transform(tt.n, rng)))  # witness
            queries.append(tt)  # identity
        queries += random_tables(6, 40, 99)  # mostly misses
        rng.shuffle(queries)
        bulk = library.match_many(queries)
        for query, outcome in zip(queries, bulk):
            single = library.match(query)
            assert (single is None) == (outcome is None)
            if outcome is not None:
                assert outcome.class_id == single.class_id
                assert outcome.transform == single.transform
                assert outcome.verify(query)

    def test_queries_sharing_a_class_are_resolved_together(self, mixed_library):
        library, tables = mixed_library
        rng = random.Random(23)
        base = tables[0]
        group = [base.apply(random_transform(base.n, rng)) for _ in range(12)]
        outcomes = library.match_many(group)
        class_ids = {o.class_id for o in outcomes}
        assert len(class_ids) == 1
        for query, outcome in zip(group, outcomes):
            assert outcome.verify(query)
