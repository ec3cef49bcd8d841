"""Tests for the benchmark suite, extraction pipeline, and random sets."""

import pytest

from repro.aig.builders import ripple_adder
from repro.core.truth_table import TruthTable
from repro.workloads.epfl import (
    ARITHMETIC,
    CONTROL,
    category_of,
    epfl_like_suite,
    suite_summary,
)
from repro.workloads.extraction import extract_cut_functions, extraction_report
from repro.workloads.random_functions import (
    consecutive_tables,
    iter_random_tables,
    random_tables,
)
from tests.corpora import hit_miss_queries, seeded_equivalent_tables


class TestSuite:
    def test_suite_builds(self):
        suite = epfl_like_suite(scale=1)
        assert len(suite) >= 12
        for name, aig in suite.items():
            assert aig.num_inputs > 0, name
            assert aig.num_outputs > 0, name

    def test_both_categories_present(self):
        suite = epfl_like_suite(scale=1)
        categories = {category_of(name) for name in suite}
        assert categories == {ARITHMETIC, CONTROL}

    def test_summary_rows(self):
        suite = epfl_like_suite(scale=1)
        rows = suite_summary(suite)
        assert len(rows) == len(suite)
        assert {row["name"] for row in rows} == set(suite)
        for row in rows:
            assert row["ands"] >= 0
            assert row["depth"] >= 1

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            epfl_like_suite(scale=0)

    def test_scale_grows_circuits(self):
        small = epfl_like_suite(scale=1)["adder"]
        large = epfl_like_suite(scale=2)["adder"]
        assert large.num_ands > small.num_ands


class TestExtraction:
    def test_extract_from_adder(self):
        functions = extract_cut_functions(ripple_adder(6), sizes=[3, 4, 5])
        assert set(functions) == {3, 4, 5}
        for n, tables in functions.items():
            assert all(tt.n == n for tt in tables)
            # Deduplication: all tables distinct.
            assert len({tt.bits for tt in tables}) == len(tables)

    def test_extract_multiple_circuits_dedupes_across(self):
        one = extract_cut_functions(ripple_adder(6), sizes=[4])
        two = extract_cut_functions(
            [ripple_adder(6), ripple_adder(6)], sizes=[4]
        )
        assert len(two[4]) == len(one[4])

    def test_limit_per_size(self):
        functions = extract_cut_functions(
            ripple_adder(8), sizes=[4, 5], limit_per_size=7
        )
        assert all(len(tables) <= 7 for tables in functions.values())

    def test_extracted_functions_contain_known_logic(self):
        """An adder's 3-cuts include MAJ3 or XOR3 (carry/sum logic)."""
        functions = extract_cut_functions(ripple_adder(6), sizes=[3])
        from repro.baselines.matcher import are_npn_equivalent

        maj = TruthTable.majority(3)
        xor3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)
        found_maj = any(are_npn_equivalent(tt, maj) for tt in functions[3])
        found_xor = any(are_npn_equivalent(tt, xor3) for tt in functions[3])
        assert found_maj and found_xor

    @pytest.mark.parametrize(
        "limit, counts, digest",
        [
            (None, {4: 33, 6: 38, 8: 34}, "39d24ad49b6c8f2c"),
            (7, {4: 7, 6: 7, 8: 7}, "0ad29e9a597694b4"),
        ],
    )
    def test_output_pinned_on_ripple_adder_10(self, limit, counts, digest):
        """Tables, order and ``limit_per_size`` cut-off as recorded from the
        extraction that walked each cut's cone: carrying tables through
        enumeration must not change a single function or its position."""
        import hashlib

        functions = extract_cut_functions(
            ripple_adder(10), sizes=[4, 6, 8], limit_per_size=limit
        )
        assert {n: len(tables) for n, tables in functions.items()} == counts
        text = ";".join(
            f"{n}:" + ",".join(tt.to_hex() for tt in functions[n])
            for n in sorted(functions)
        )
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_size_validation(self):
        with pytest.raises(ValueError):
            extract_cut_functions(ripple_adder(4), sizes=[])
        with pytest.raises(ValueError):
            extract_cut_functions(ripple_adder(4), sizes=[0])

    def test_report(self):
        functions = extract_cut_functions(ripple_adder(6), sizes=[4])
        rows = extraction_report(functions)
        assert rows[0]["n"] == 4
        assert rows[0]["functions"] == len(functions[4])
        assert 0 <= rows[0]["balanced"] <= rows[0]["functions"]


class TestRandomSets:
    def test_random_tables_deterministic(self):
        assert random_tables(5, 10, seed=3) == random_tables(5, 10, seed=3)
        assert random_tables(5, 10, seed=3) != random_tables(5, 10, seed=4)

    def test_consecutive_tables(self):
        tables = consecutive_tables(4, 5, start=10)
        assert [tt.bits for tt in tables] == [10, 11, 12, 13, 14]

    def test_consecutive_wraps(self):
        tables = consecutive_tables(2, 4, start=14)
        assert [tt.bits for tt in tables] == [14, 15, 0, 1]

    def test_consecutive_needs_seed_or_start(self):
        with pytest.raises(ValueError):
            consecutive_tables(4, 5)
        by_seed = consecutive_tables(4, 5, seed=1)
        assert len(by_seed) == 5

    def test_seeded_equivalents_class_count(self):
        from repro.baselines.exact import ExactClassifier

        tables, upper = seeded_equivalent_tables(
            4, orbits=8, members_per_orbit=4, seed=5
        )
        assert len(tables) == 32
        exact = ExactClassifier().count_classes(tables)
        assert exact <= upper
        assert exact >= 1

    def test_iter_random_tables_matches_list_form(self):
        lazy = iter_random_tables(5, 20, seed=6)
        assert not isinstance(lazy, list)  # genuinely a generator
        assert list(lazy) == random_tables(5, 20, seed=6)


class TestHitMissQueries:
    def test_hits_require_real_witness_searches(self):
        """Hit queries are NPN images of corpus tables, not the tables
        themselves — the library identity short-circuit must not fire."""
        from repro.library import build_library

        corpus, queries = hit_miss_queries(5, 25, 25, seed=12)
        library = build_library(corpus)
        outcomes = library.match_many(queries)
        hits = [o for o in outcomes if o is not None]
        assert len(hits) >= 25  # every planted image resolves
        for query, outcome in zip(queries, outcomes):
            if outcome is not None:
                assert outcome.verify(query)


class TestMissHeavyQueries:
    """Traffic for the learn-on-miss path: verified misses, planted hits."""

    @pytest.fixture(scope="class")
    def lib3(self):
        from repro.library import build_exhaustive_library

        return build_exhaustive_library(3)

    def test_misses_verifiably_miss_and_hits_verifiably_hit(self, lib3):
        from repro.workloads.learning import miss_heavy_queries

        queries = miss_heavy_queries(lib3, 6, 20, seed=21, miss_fraction=0.75)
        assert len(queries) == 20
        outcomes = lib3.match_many(queries)
        assert sum(o is None for o in outcomes) == 20  # no n=6 classes stored

        mixed = miss_heavy_queries(lib3, 3, 12, seed=22, miss_fraction=0.0)
        for query, outcome in zip(mixed, lib3.match_many(mixed)):
            assert outcome is not None and outcome.verify(query)

    def test_all_miss_when_library_lacks_the_arity(self, lib3):
        from repro.workloads.learning import miss_heavy_queries

        queries = miss_heavy_queries(lib3, 5, 10, seed=23, miss_fraction=0.1)
        assert all(lib3.lookup(tt) is None for tt in queries)

    def test_deterministic(self, lib3):
        from repro.workloads.learning import miss_heavy_queries

        assert miss_heavy_queries(lib3, 5, 15, seed=24) == miss_heavy_queries(
            lib3, 5, 15, seed=24
        )

    def test_exact_mint_count_under_learning(self, lib3, tmp_path):
        """The advertised contract: miss count == classes a learner mints."""
        from repro.library import LearningLibrary
        from repro.workloads.learning import miss_heavy_queries, with_repeats

        lib3.save(tmp_path)
        learner = LearningLibrary.open(tmp_path)
        misses = miss_heavy_queries(lib3, 5, 6, seed=25, miss_fraction=1.0)
        distinct = {learner.learn([tt])[0].class_id for tt in misses}
        assert learner.minted == len(distinct)
        for tt in with_repeats(misses, repeats=2, seed=26):
            hit = learner.library.match(tt)
            assert hit is not None and hit.verify(tt)
        assert learner.minted == len(distinct)

    def test_with_repeats_shape(self):
        from repro.workloads.learning import with_repeats

        queries = random_tables(4, 5, seed=27)
        doubled = with_repeats(queries, repeats=3, seed=28)
        assert len(doubled) == 15
        assert sorted(map(repr, doubled)) == sorted(
            map(repr, queries * 3)
        )
        assert with_repeats(queries, 3, seed=28) == doubled

    def test_rejects_bad_arguments(self):
        from repro.workloads.learning import miss_heavy_queries, with_repeats
        from repro.library import ClassLibrary

        with pytest.raises(ValueError):
            miss_heavy_queries(ClassLibrary(), 4, -1, seed=0)
        with pytest.raises(ValueError):
            miss_heavy_queries(ClassLibrary(), 4, 5, seed=0, miss_fraction=1.5)
        with pytest.raises(ValueError):
            with_repeats([], repeats=0, seed=0)
