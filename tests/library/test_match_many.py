"""Batched ``ClassLibrary.match_many`` parity with per-query ``match``."""

import random

import pytest

from repro.baselines.exact_enum import exact_npn_canonical
from repro.core.transforms import random_transform
from repro.engine import BatchedClassifier
from repro.kernels.gather import clear_memory_cache
from repro.library import build_library
from repro.workloads import random_tables


@pytest.fixture(autouse=True)
def fresh_kernel_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


def spy_constructions(monkeypatch) -> list:
    """Record every ``NPNTransform`` built from now on."""
    from repro.core.transforms import NPNTransform

    built = []
    real = NPNTransform.__post_init__
    monkeypatch.setattr(
        NPNTransform,
        "__post_init__",
        lambda self: built.append(self) or real(self),
    )
    return built


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
            "repro.library.store.BatchedClassifier",
            lambda parts: pytest.fail("n <= 5 query computed a signature"),
        )
        hits = library.match_many(queries)
        assert all(h is not None and h.verify(q) for h, q in zip(hits, queries))
        assert library._chains is None

    def test_mixed_small_arities_take_one_canonicalization_call(
        self, monkeypatch
    ):
        """Queries of n = 2..5 share one front-door call; only hits
        build a witness object."""
        from repro.library import store

        library = build_library(
            [tt for n in (2, 3, 4, 5) for tt in random_tables(n, 5, 60 + n)]
        )
        rng = random.Random(61)
        hits = [
            e.representative.apply(random_transform(e.n, rng))
            for e in library.entries()
        ]
        misses = [
            tt
            for n in (3, 4, 5)
            for tt in random_tables(n, 30, 70 + n)
            if library.match(tt) is None
        ]
        queries = hits + misses
        random.Random(62).shuffle(queries)
        calls = []
        real = store.canonical_forms_with_transforms
        monkeypatch.setattr(
            store,
            "canonical_forms_with_transforms",
            lambda tables: calls.append(len(tables)) or real(tables),
        )
        built = spy_constructions(monkeypatch)
        outcomes = library.match_many(queries)
        assert calls == [len(queries)]
        assert len(built) == len(hits)
        for query, outcome in zip(queries, outcomes):
            assert (outcome is None) == (query in misses)
            assert outcome is None or outcome.verify(query)

    def test_witnesses_are_built_for_hits_only(self, monkeypatch):
        """A miss costs a kernel row and an id lookup: no witness object.
        Hits keep the kernel's inverted argmin transform."""
        from repro.canonical.form import canonical_class_id, canonical_form
        from repro.kernels import canonical_min_transforms

        library = build_library(random_tables(4, 6, 5))
        misses = [
            tt
            for tt in random_tables(4, 80, 43)
            if canonical_class_id(canonical_form(tt)) not in library.classes
        ]
        assert len(misses) >= 40
        rng = random.Random(31)
        hits = [
            entry.representative.apply(random_transform(4, rng))
            for entry in library.entries()
            for _ in range(4)
        ]
        _, transforms = canonical_min_transforms([tt.bits for tt in hits], 4)
        expected = [transform.inverse() for transform in transforms]

        built = spy_constructions(monkeypatch)
        assert library.match_many(misses) == [None] * len(misses)
        assert built == []

        outcomes = library.match_many(misses + hits)
        assert outcomes[: len(misses)] == [None] * len(misses)
        assert [o.transform for o in outcomes[len(misses) :]] == expected
        assert all(o.verify(q) for o, q in zip(outcomes[len(misses) :], hits))
        assert len(built) == len(hits)

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


class TestScalarMatcherParity:
    """n=6 queries take the signature-chain path: the kernel-backed
    matcher must return the scalar backtracker's witness, byte for byte."""

    def test_hit_miss_witnesses_equal_a_scalar_chain_walk(self):
        from repro.baselines.matcher import find_npn_transform_scalar
        from tests.corpora import hit_miss_queries

        corpus, queries = hit_miss_queries(6, 300, 300, seed=1105)
        library = build_library(corpus)
        signatures = BatchedClassifier(library.parts).signatures(queries)
        chains = library._chain_index()
        matches = library.match_many(queries)
        hits = 0
        for query, signature, match in zip(queries, signatures, matches):
            expected = None
            for class_id in chains.get(signature, ()):
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


class TestFlatKeys:
    """The chain path keys on the engine's flat rows: n = 6 hits and the
    learner's mints never nest a row into the paper's key tuples."""

    def test_n6_hits_and_learn_never_nest(self, tmp_path, monkeypatch):
        from repro.engine import signatures as engine_signatures
        from repro.library import LearningLibrary

        corpus = random_tables(6, 24, 5)
        library = build_library(corpus)
        rng = random.Random(6)
        hits = [tt.apply(random_transform(6, rng)) for tt in corpus]
        misses = random_tables(6, 8, 7)
        nested = []
        real = engine_signatures._nest
        monkeypatch.setattr(
            engine_signatures,
            "_nest",
            lambda *args: nested.append(args) or real(*args),
        )
        matches = library.match_many(hits)
        assert all(m is not None and m.verify(q) for m, q in zip(matches, hits))
        learner = LearningLibrary(library, tmp_path)
        learned = library.match_many(misses, learn=learner.learn)
        assert learner.minted == len(misses)
        assert all(m.verify(q) for m, q in zip(learned, misses))
        learner.close()
        assert nested == []


class TestWitnessBoundary:
    """Transforms travel as columns below the API: ``match_many`` builds
    exactly one ``NPNTransform`` per answer it returns — hit or mint —
    and none for a miss."""

    @staticmethod
    def mixed_batch():
        corpus = [tt for n in (3, 4, 5, 6) for tt in random_tables(n, 12, n)]
        rng = random.Random(90)
        hits = [tt.apply(random_transform(tt.n, rng)) for tt in corpus]
        misses = [tt for n in (3, 4, 5, 6) for tt in random_tables(n, 12, 90 + n)]
        queries = hits + misses + hits[:6]  # repeats share a class
        random.Random(91).shuffle(queries)
        return build_library(corpus), queries

    def test_read_only_builds_one_per_hit(self, monkeypatch):
        library, queries = self.mixed_batch()
        built = spy_constructions(monkeypatch)
        outcomes = library.match_many(queries)
        answers = [o for o in outcomes if o is not None]
        assert len(built) == len(answers)
        assert 0 < len(answers) < len(queries)
        assert {o.transform.n for o in answers} == {3, 4, 5, 6}
        assert all(o is None or o.verify(q) for o, q in zip(outcomes, queries))

    def test_learning_builds_one_per_hit_or_mint(self, tmp_path, monkeypatch):
        from repro.library import LearningLibrary

        library, queries = self.mixed_batch()
        learner = LearningLibrary(library, tmp_path)
        built = spy_constructions(monkeypatch)
        outcomes = library.match_many(queries, learn=learner.learn)
        learner.close()
        assert None not in outcomes and learner.minted > 0
        assert len(built) == len(outcomes)
        assert all(o.verify(q) for o, q in zip(outcomes, queries))
