"""Exact classes and their canonical ids: signature-engine parity.

:class:`~repro.baselines.exact.ExactClassifier` is the one exact engine,
and ``build_library(..., exact=True)`` names each of its classes by the
orbit minimum.  On any n <= 6 workload the exact partition equals the
batched signature engine's (the signatures are perfect discriminators
there), and every class id is a pure function of the orbit.
"""

import random

import pytest

from repro.baselines.exact import ExactClassifier, ExactStats
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier
from repro.library import build_library
from repro.workloads.random_functions import random_tables
from tests.corpora import seeded_equivalent_tables


def partition(result):
    """Engine-independent view of a classification: member groups."""
    return sorted(
        tuple(sorted(tt.bits for tt in members))
        for members in result.groups.values()
    )


class TestExactness:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_buckets_match_batched_engine(self, n):
        tables, _ = seeded_equivalent_tables(n, orbits=12, members_per_orbit=4, seed=n)
        exact = ExactClassifier().classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert exact.num_classes == batched.num_classes
        assert partition(exact) == partition(batched)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_serving_traffic_matches_batched_engine(self, n):
        # Serving-shaped traffic: 40 hot orbits of 24 NPN images each,
        # salted with 40 fresh random functions, shuffled.
        tables, _ = seeded_equivalent_tables(
            n, orbits=40, members_per_orbit=24, seed=2023
        )
        tables += random_tables(n, 40, 2024)
        random.Random(2025).shuffle(tables)
        exact = ExactClassifier().classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert exact.num_classes == batched.num_classes
        assert partition(exact) == partition(batched)

    def test_exhaustive_n3_counts(self):
        tables = [TruthTable(3, bits) for bits in range(256)]
        library = build_library(tables, exact=True)
        assert library.num_classes == 14
        assert library.num_functions == 256

    def test_ids_identical_across_independent_runs(self):
        # Two builds, two input orders, same orbits: identical ids and sizes.
        tables, _ = seeded_equivalent_tables(5, orbits=8, members_per_orbit=3, seed=10)

        def classes(order):
            return {
                e.class_id: e.size
                for e in build_library(order, exact=True).entries()
            }

        assert classes(tables) == classes(list(reversed(tables)))


class TestStats:
    def test_empty_workload(self):
        clf = ExactClassifier()
        assert clf.classify([]).num_classes == 0
        assert clf.stats == ExactStats()
