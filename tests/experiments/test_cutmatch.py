"""Tests for the AIG cut-matching experiment and the cut-function stream."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import builders
from repro.aig.cuts import iter_cut_functions
from repro.core.truth_table import TruthTable
from repro.experiments.cutmatch import (
    class_hit_rows,
    cut_match_rows,
    run_cut_matching,
)
from repro.library import build_library
from repro.workloads.epfl import epfl_like_suite
from repro.workloads.library_corpus import exhaustive_tables

#: The suite circuits the ``cuts-library`` benchmark matches.
CUTS_LIBRARY_CIRCUITS = (
    "adder", "arbiter", "cla", "comparator", "max", "parity", "priority",
    "subtractor",
)


def reference_matching(library, circuits, sizes, max_cuts=16):
    """Rows and class hits counted one cut occurrence at a time, from
    ``iter_cut_functions`` and ``library.match`` (memoised per table)."""
    memo, class_hits, rows = {}, Counter(), []
    every_cut = every_match = 0
    every_unique = set()

    def row(name, cuts, matched, unique):
        return {
            "circuit": name,
            "cuts": cuts,
            "matched": matched,
            "hit_rate": round(matched / cuts, 4) if cuts else 0.0,
            "unique_functions": len(unique),
            "unique_matched": sum(memo[key] is not None for key in unique),
        }

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
        rows.append(row(name, cuts, matched, unique))
        every_cut += cuts
        every_match += matched
        every_unique |= unique
    rows.append(row("TOTAL", every_cut, every_match, every_unique))
    return rows, class_hits


def assert_matches_reference(library, circuits, sizes, max_cuts=16):
    rows, class_hits = run_cut_matching(library, circuits, sizes, max_cuts)
    expected_rows, expected_hits = reference_matching(
        library, circuits, sizes, max_cuts
    )
    assert rows == expected_rows
    # Equal counts, listed in the same (first-hit) order.
    assert list(class_hits.items()) == list(expected_hits.items())
    return rows


@pytest.fixture(scope="module")
def lib23():
    """Complete class inventory for arities 2 and 3."""
    return build_library([*exhaustive_tables(2), *exhaustive_tables(3)])


@pytest.fixture(scope="module")
def lib_mixed():
    """Every class at arities 2 and 3, plus the 4- and 5-cut functions of
    two small builders: random networks both hit and miss it."""
    cut_tables = [
        tt
        for aig in (builders.ripple_adder(3), builders.majority_voter(5))
        for _, _, tt in iter_cut_functions(aig, (4, 5))
    ]
    return build_library([*exhaustive_tables(2), *exhaustive_tables(3), *cut_tables])


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
    """One batched ``match_many`` pass over the cut arrays reports exactly
    what matching each cut occurrence with ``library.match`` does."""

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
        total = assert_matches_reference(library, circuits, sizes)[-1]
        assert 0 < total["matched"] < total["cuts"]
        assert {n for n, _ in tables} == set(sizes)

    def test_cuts_library_circuits_equal_per_occurrence_matching(self):
        suite = epfl_like_suite()
        circuits = {name: suite[name] for name in CUTS_LIBRARY_CIRCUITS}
        sizes = (4, 5, 6)
        tables = {
            (tt.n, tt.bits): tt
            for name in CUTS_LIBRARY_CIRCUITS[::2]
            for _, _, tt in iter_cut_functions(circuits[name], sizes)
        }
        library = build_library(tables.values())
        total = assert_matches_reference(library, circuits, sizes)[-1]
        assert 0 < total["matched"] < total["cuts"]

    @settings(max_examples=25, deadline=None)
    @given(
        networks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=2, max_value=8),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1,
            max_size=3,
        ),
        sizes=st.sets(st.integers(min_value=2, max_value=5), min_size=1),
        max_cuts=st.integers(min_value=1, max_value=16),
    )
    def test_random_control_equals_per_occurrence_matching(
        self, lib_mixed, networks, sizes, max_cuts
    ):
        circuits = {
            f"net{index}": builders.random_control(inputs, gates, seed)
            for index, (seed, inputs, gates) in enumerate(networks)
        }
        assert_matches_reference(lib_mixed, circuits, sorted(sizes), max_cuts)


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


#: One cut-matching process, start to end: build a library from half of
#: the suite circuits, save and load it, match every circuit's cuts.  It
#: prints whether ``numpy.ma`` was imported and digests of the result.
CUT_MATCHING_PROCESS = """
import hashlib, json, sys, tempfile
from repro.aig.cuts import iter_cut_functions
from repro.experiments.cutmatch import run_cut_matching
from repro.library import build_library
from repro.library.store import ClassLibrary
from repro.workloads.epfl import epfl_like_suite

names = %r
suite = epfl_like_suite()
circuits = {name: suite[name] for name in names}
tables = {}
for name in names[::2]:
    for _, _, tt in iter_cut_functions(circuits[name], (4, 5, 6), max_cuts=16):
        tables.setdefault((tt.n, tt.bits), tt)
with tempfile.TemporaryDirectory() as tmp:
    build_library(tables.values()).save(tmp + "/lib")
    library = ClassLibrary.load(tmp + "/lib")
    rows, hits = run_cut_matching(library, circuits, sizes=(4, 5, 6), max_cuts=16)
digest = lambda value: hashlib.sha256(json.dumps(value).encode()).hexdigest()
print(json.dumps({
    "numpy.ma": "numpy.ma" in sys.modules,
    "rows": digest([sorted(row.items()) for row in rows]),
    "class_hits": digest(list(hits.items())),
}))
""" % (CUTS_LIBRARY_CIRCUITS,)


ROWS_DIGEST = "da524f934601da272c6f8834ef891b1194fe605c134689f402e8d5e2ad647c8c"
CLASS_HITS_DIGEST = (
    "d7b3a766f2a84989e2c15764a77d05f7c77fac4282347d899b5267de8368165e"
)


class TestCutMatchingProcess:
    def test_no_numpy_ma_and_the_same_answers(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        done = subprocess.run(
            [sys.executable, "-c", CUT_MATCHING_PROCESS],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        # ``np.unique`` imports numpy.ma, about 1 MiB per process; the
        # digests are those of the np.unique-based version of the code.
        assert json.loads(done.stdout) == {
            "numpy.ma": False,
            "rows": ROWS_DIGEST,
            "class_hits": CLASS_HITS_DIGEST,
        }
