"""The hybrid canonical engine: exact classes, signature-engine parity.

The acceptance contract of the PR: on any n <= 6 workload the canonical
engine produces *byte-identical* class buckets to the batched signature
engine (the signatures are perfect discriminators there), every class id
is a pure function of the orbit, and the signature pre-filter decides
the overwhelming share of functions without an exact canonicalization.
"""

import random

import pytest

from repro.canonical.engine import CanonicalClass, CanonicalClassifier
from repro.canonical.form import canonical_class_id
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier, PackedTables, make_classifier
from repro.workloads.random_functions import (
    random_tables,
    seeded_equivalent_tables,
)


def partition(result):
    """Engine-independent view of a classification: member groups."""
    return sorted(
        tuple(sorted(tt.bits for tt in members))
        for members in result.groups.values()
    )


class TestFactory:
    def test_factory_builds_canonical_engine(self):
        assert isinstance(make_classifier("canonical"), CanonicalClassifier)

    def test_parts_pass_through(self):
        clf = make_classifier("canonical", parts=("c0", "oiv"))
        assert clf.parts == ("c0", "oiv")


class TestExactness:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_buckets_match_batched_engine(self, n):
        tables, _ = seeded_equivalent_tables(n, orbits=12, members_per_orbit=4, seed=n)
        canonical = CanonicalClassifier().classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert canonical.num_classes == batched.num_classes
        assert partition(canonical) == partition(batched)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_serving_traffic_matches_batched_engine(self, n):
        # Serving-shaped traffic: 40 hot orbits of 24 NPN images each,
        # salted with 40 fresh random functions, shuffled.
        tables, _ = seeded_equivalent_tables(
            n, orbits=40, members_per_orbit=24, seed=2023
        )
        tables += random_tables(n, 40, 2024)
        random.Random(2025).shuffle(tables)
        engine = CanonicalClassifier()
        canonical = engine.classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert canonical.num_classes == batched.num_classes
        assert partition(canonical) == partition(batched)
        if n == 6:
            # The signature pre-filter decides the repeats: at least 90%
            # of the functions never reach an exact canonicalization.
            assert engine.stats.pruned_fraction >= 0.90

    def test_exhaustive_n3_counts(self):
        tables = [TruthTable(3, bits) for bits in range(256)]
        result = CanonicalClassifier().classify(tables)
        assert result.num_classes == 14

    def test_keys_are_canonical_classes_with_portable_ids(self):
        tables, _ = seeded_equivalent_tables(5, orbits=6, members_per_orbit=3, seed=9)
        result = CanonicalClassifier().classify(tables)
        for key, members in result.groups.items():
            assert isinstance(key, CanonicalClass)
            assert key.class_id == canonical_class_id(key.table)
            # The key really is a member of its own class's orbit: it is
            # the canonical form of every member.
            clf = CanonicalClassifier()
            for tt in members:
                assert clf.canonical(tt) == key.table

    def test_ids_identical_across_independent_runs(self):
        # Two engines, two input orders, same orbits: identical id sets.
        tables, _ = seeded_equivalent_tables(5, orbits=8, members_per_orbit=3, seed=10)
        ids_a = {k.class_id for k in CanonicalClassifier().classify(tables).groups}
        reversed_tables = list(reversed(tables))
        ids_b = {
            k.class_id
            for k in CanonicalClassifier().classify(reversed_tables).groups
        }
        assert ids_a == ids_b

    def test_packed_input(self):
        tables = random_tables(5, 64, 11)
        packed = PackedTables.from_tables(tables)
        assert partition(CanonicalClassifier().classify(packed)) == partition(
            CanonicalClassifier().classify(tables)
        )

    def test_buckets_digest_works_on_canonical_keys(self):
        tables = random_tables(4, 32, 12)
        digest_a = CanonicalClassifier().classify(tables).buckets_digest()
        digest_b = CanonicalClassifier().classify(tables).buckets_digest()
        assert digest_a == digest_b


class TestStats:
    def test_one_canonicalization_per_class(self):
        tables, _ = seeded_equivalent_tables(5, orbits=5, members_per_orbit=6, seed=13)
        clf = CanonicalClassifier()
        result = clf.classify(tables)
        assert clf.stats.functions == len(tables)
        assert clf.stats.classes == result.num_classes
        assert clf.stats.canonical_calls == result.num_classes
        assert clf.stats.pruned_fraction == 1.0 - (
            result.num_classes / len(tables)
        )

    def test_repeat_traffic_is_fully_pruned(self):
        clf = CanonicalClassifier()
        tables = random_tables(5, 16, 14)
        clf.classify(tables)
        first_calls = clf.stats.canonical_calls
        clf.classify(tables)  # same orbits: every form is LRU-cached
        assert clf.stats.canonical_calls == first_calls

    def test_stats_as_dict_shape(self):
        clf = CanonicalClassifier()
        clf.classify(random_tables(4, 8, 15))
        payload = clf.stats.as_dict()
        assert set(payload) == {
            "functions",
            "classes",
            "canonical_calls",
            "matcher_calls",
            "pruned_fraction",
        }

    def test_empty_workload(self):
        clf = CanonicalClassifier()
        assert clf.classify([]).num_classes == 0
        assert clf.stats.pruned_fraction == 0.0
