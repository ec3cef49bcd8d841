"""Tests for the AIG cut-matching experiment and the cut-function stream."""

from collections import Counter

import pytest

from repro.aig import builders
from repro.aig.cuts import iter_cut_functions
from repro.core.truth_table import TruthTable
from repro.experiments.cutmatch import (
    _row,
    class_hit_rows,
    cut_match_rows,
    run_cut_matching,
)
from repro.library import build_library
from repro.workloads.library_corpus import exhaustive_tables


@pytest.fixture(scope="module")
def lib23():
    """Complete class inventory for arities 2 and 3."""
    return build_library([*exhaustive_tables(2), *exhaustive_tables(3)])


class TestIterCutFunctions:
    def test_yields_only_wanted_sizes(self):
        aig = builders.ripple_adder(4)
        for _, cut, tt in iter_cut_functions(aig, sizes=(3,)):
            assert cut.size == 3
            assert tt.n == 3

    def test_function_matches_cut_arity(self):
        aig = builders.majority_voter(5)
        seen = 0
        for _, cut, tt in iter_cut_functions(aig, sizes=(2, 3)):
            assert tt.n == cut.size
            seen += 1
        assert seen > 0

    def test_deterministic_order(self):
        aig = builders.ripple_adder(4)
        first = [(v, c.leaves, t.bits) for v, c, t in iter_cut_functions(aig, (2, 3))]
        second = [(v, c.leaves, t.bits) for v, c, t in iter_cut_functions(aig, (2, 3))]
        assert first == second

    def test_rejects_bad_sizes_at_call_time(self):
        """The size check must fire eagerly, not at first iteration."""
        aig = builders.ripple_adder(2)
        with pytest.raises(ValueError):
            iter_cut_functions(aig, sizes=())
        with pytest.raises(ValueError):
            iter_cut_functions(aig, sizes=(0,))


class TestRunCutMatching:
    def test_complete_library_hits_every_cut(self, lib23):
        circuits = {
            "adder": builders.ripple_adder(4),
            "parity": builders.parity(6),
        }
        rows, class_hits = run_cut_matching(lib23, circuits, sizes=(2, 3))
        by_name = {row["circuit"]: row for row in rows}
        assert set(by_name) == {"adder", "parity", "TOTAL"}
        total = by_name["TOTAL"]
        assert total["cuts"] > 0
        assert total["matched"] == total["cuts"]
        assert total["hit_rate"] == 1.0
        assert total["unique_matched"] == total["unique_functions"]
        assert sum(class_hits.values()) == total["matched"]

    def test_total_row_aggregates_circuits(self, lib23):
        circuits = {
            "a": builders.ripple_adder(3),
            "b": builders.majority_voter(5),
        }
        rows, _ = run_cut_matching(lib23, circuits, sizes=(3,))
        by_name = {row["circuit"]: row for row in rows}
        assert by_name["TOTAL"]["cuts"] == by_name["a"]["cuts"] + by_name["b"]["cuts"]
        assert (
            by_name["TOTAL"]["matched"]
            == by_name["a"]["matched"] + by_name["b"]["matched"]
        )

    def test_partial_library_reports_misses(self):
        # A library holding only the AND class cannot cover an adder's
        # XOR-shaped cuts: the hit rate must drop below 1 and the missing
        # functions must be reported, not silently dropped.
        tiny = build_library([TruthTable.from_function(2, lambda a, b: a & b)])
        rows, class_hits = run_cut_matching(
            tiny, {"adder": builders.ripple_adder(4)}, sizes=(2,)
        )
        total = next(row for row in rows if row["circuit"] == "TOTAL")
        assert 0 < total["matched"] < total["cuts"]
        assert 0 < total["hit_rate"] < 1
        assert set(class_hits) == {entry.class_id for entry in tiny.entries()}

    def test_every_reported_hit_carries_verified_witness(self, lib23):
        aig = builders.ripple_adder(3)
        for _, _, tt in iter_cut_functions(aig, sizes=(2, 3)):
            hit = lib23.match(tt)
            assert hit is not None
            assert hit.verify(tt)


class TestBatchedParity:
    """One batched ``match_many`` pass reports exactly what matching each
    distinct function with ``library.match`` does."""

    @staticmethod
    def reference(library, circuits, sizes, max_cuts=16):
        """The per-function loop: memoised ``library.match`` calls."""
        memo, class_hits, rows = {}, Counter(), []
        totals, total_unique = Counter(), set()
        for name, aig in sorted(circuits.items()):
            cuts = matched = 0
            unique = set()
            for _, _, tt in iter_cut_functions(aig, sizes, max_cuts=max_cuts):
                cuts += 1
                key = (tt.n, tt.bits)
                unique.add(key)
                if key not in memo:
                    hit = library.match(tt)
                    assert hit is None or hit.verify(tt)
                    memo[key] = None if hit is None else hit.class_id
                if memo[key] is not None:
                    matched += 1
                    class_hits[memo[key]] += 1
            rows.append(_row(name, cuts, matched, unique, memo))
            totals["cuts"] += cuts
            totals["matched"] += matched
            total_unique |= unique
        rows.append(
            _row("TOTAL", totals["cuts"], totals["matched"], total_unique, memo)
        )
        return rows, class_hits

    def test_rows_and_class_hits_equal_per_function_matching(self):
        circuits = {
            "adder": builders.ripple_adder(4),
            "cla": builders.carry_lookahead_adder(4),
            "voter": builders.majority_voter(7),
            "parity": builders.parity(8),
            "comparator": builders.comparator(4),
        }
        sizes = (4, 5, 6)
        # A library of half the circuits' functions: hits and misses at
        # every arity.
        built_from = {"adder", "voter", "comparator"}
        tables = {
            (tt.n, tt.bits): tt
            for name in built_from
            for _, _, tt in iter_cut_functions(circuits[name], sizes)
        }
        library = build_library(tables.values())
        rows, class_hits = run_cut_matching(library, circuits, sizes=sizes)
        expected_rows, expected_hits = self.reference(library, circuits, sizes)
        assert rows == expected_rows
        assert class_hits == expected_hits
        total = rows[-1]
        assert 0 < total["matched"] < total["cuts"]
        assert {n for n, _ in tables} == set(sizes)


class TestReportRows:
    def test_class_hit_rows_are_ranked_and_capped(self, lib23):
        circuits = {"voter": builders.majority_voter(7)}
        _, class_hits = run_cut_matching(lib23, circuits, sizes=(2, 3))
        rows = class_hit_rows(lib23, class_hits, top=3)
        assert len(rows) == min(3, len(class_hits))
        hits = [row["hits"] for row in rows]
        assert hits == sorted(hits, reverse=True)
        for row in rows:
            assert row["class_id"] in lib23.classes

    def test_cut_match_rows_append_library_coverage(self, lib23):
        circuits = {"adder": builders.ripple_adder(3)}
        rows, class_hits = run_cut_matching(lib23, circuits, sizes=(3,))
        summary = cut_match_rows(lib23, rows, class_hits)
        coverage = summary[-1]
        assert coverage["circuit"] == "library classes hit"
        assert coverage["cuts"] == len(class_hits)
        assert 0 < coverage["hit_rate"] <= 1
