"""Batched ``ClassLibrary.match_many`` parity with per-query ``match``."""

import random

import pytest

from repro.baselines.exact_enum import exact_npn_canonical
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


N4_CLASS_COUNT = 222


class TestCanonicalFormPath:
    """Queries of n <= 5 resolve by canonical form: id lookup + witness."""

    def test_every_n4_function_hits_with_a_verified_witness(self):
        from repro.library import build_exhaustive_library
        from repro.workloads import exhaustive_tables

        library = build_exhaustive_library(4)
        tables = list(exhaustive_tables(4))
        hits = library.match_many(tables)
        assert all(hit is not None for hit in hits)
        assert all(hit.verify(tt) for hit, tt in zip(hits, tables))
        assert len({hit.class_id for hit in hits}) == N4_CLASS_COUNT
        # Ids are orbit minima: a sample checked against the enumeration.
        for tt, hit in list(zip(tables, hits))[:: 1 << 8]:
            assert hit.representative == exact_npn_canonical(tt).representative

    def test_small_queries_take_no_signature_or_matcher_pass(
        self, mixed_library, monkeypatch
    ):
        library, tables = mixed_library
        small = [tt for tt in tables if tt.n <= 5]
        rng = random.Random(29)
        queries = [tt.apply(random_transform(tt.n, rng)) for tt in small]
        monkeypatch.setattr(
            "repro.library.store.find_npn_transforms_grouped",
            lambda pairs: pytest.fail("n <= 5 query reached the matcher"),
        )
        monkeypatch.setattr(
            library,
            "_signature_engine",
            lambda: pytest.fail("n <= 5 query computed a signature"),
        )
        hits = library.match_many(queries)
        assert all(h is not None and h.verify(q) for h, q in zip(hits, queries))
        assert library._chains is None

    def test_kernel_phase_is_timed_and_queries_counted_once(
        self, mixed_library
    ):
        from repro import obs

        library, tables = mixed_library
        registry = obs.registry()
        seconds = registry.get("repro_library_match_seconds")
        queries = registry.get("repro_library_match_queries_total")
        before = (
            seconds.series(phase="kernel")["count"],
            seconds.series(phase="witness")["count"],
            queries.value(outcome="hit") + queries.value(outcome="miss"),
        )
        batch = tables[::7] + random_tables(4, 5, 41)
        library.match_many(batch)
        after = (
            seconds.series(phase="kernel")["count"],
            seconds.series(phase="witness")["count"],
            queries.value(outcome="hit") + queries.value(outcome="miss"),
        )
        assert after[0] == before[0] + 1
        assert after[1] == before[1] + 1
        assert after[2] == before[2] + len(batch)

    def test_foreign_signatures_are_rejected_on_the_kernel_path(
        self, mixed_library
    ):
        from repro.core.msv import compute_msv

        library, tables = mixed_library
        small = [tt for tt in tables if tt.n == 4][:3]
        with pytest.raises(ValueError):
            library.match_many(
                small,
                signatures=[compute_msv(tt, ("c0", "oiv")) for tt in small],
            )


class TestScalarMatcherParity:
    """n=6 queries take the signature-chain path: the kernel-backed
    matcher must return the scalar backtracker's witness, byte for byte."""

    def test_hit_miss_witnesses_equal_a_scalar_chain_walk(self):
        from repro.baselines.matcher import find_npn_transform_scalar
        from repro.workloads import hit_miss_queries

        corpus, queries = hit_miss_queries(6, 300, 300, seed=1105)
        library = build_library(corpus)
        signatures = library._signature_engine().signatures(queries)
        chains = library._chain_index()
        matches = library.match_many(queries, signatures=signatures)
        hits = 0
        for query, signature, match in zip(queries, signatures, matches):
            expected = None
            for class_id in chains.get(library.base_id_of(signature), ()):
                entry = library.classes[class_id]
                witness = find_npn_transform_scalar(entry.representative, query)
                if witness is not None:
                    expected = (class_id, witness)
                    break
            assert (match is None) == (expected is None)
            if match is None:
                continue
            assert (match.class_id, match.transform) == expected
            # Re-verified through the scalar big-int apply, not the
            # gather kernels that produced the witness.
            assert match.representative.apply(match.transform) == query
            hits += 1
        assert hits == 300
