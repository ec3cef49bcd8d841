"""Tests for the face/point classifier (Algorithm 1)."""

import random

from repro.core.classifier import ClassificationResult, FacePointClassifier
from repro.core.transforms import all_transforms, random_transform
from repro.core.truth_table import TruthTable


class TestBasicClassification:
    def test_orbit_collapses_to_one_class(self):
        maj = TruthTable.majority(3)
        orbit = {maj.apply(t) for t in all_transforms(3)}
        result = FacePointClassifier().classify(orbit)
        assert result.num_classes == 1
        assert result.num_functions == len(orbit)

    def test_distinct_functions_split(self):
        tables = [
            TruthTable.majority(3),
            TruthTable.projection(3, 0),
            TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c),
            TruthTable.constant(3, 0),
        ]
        result = FacePointClassifier().classify(tables)
        assert result.num_classes == 4

    def test_empty_input(self):
        result = FacePointClassifier().classify([])
        assert result.num_classes == 0
        assert result.num_functions == 0

    def test_count_classes_matches_classify(self):
        rng = random.Random(0)
        tables = [TruthTable.random(4, rng) for _ in range(200)]
        clf = FacePointClassifier()
        assert clf.count_classes(tables) == clf.classify(tables).num_classes

    def test_representatives_and_sizes(self):
        maj = TruthTable.majority(3)
        tables = [maj, ~maj, TruthTable.projection(3, 1)]
        result = FacePointClassifier().classify(tables)
        reps = result.representatives()
        assert len(reps) == 2
        assert result.class_sizes() == [2, 1]

    def test_class_of_lookup(self):
        maj = TruthTable.majority(3)
        result = FacePointClassifier().classify([maj, ~maj])
        assert set(result.class_of(maj.flip_input(0))) == {maj, ~maj}
        assert result.class_of(TruthTable.constant(3, 1)) == []


class TestPartAblations:
    def test_weaker_parts_give_fewer_or_equal_classes(self):
        """Refinement chain of Table II: more parts -> more classes."""
        rng = random.Random(7)
        tables = [TruthTable.random(4, rng) for _ in range(400)]
        count = lambda parts: FacePointClassifier(parts).count_classes(tables)
        full = count(["c0", "ocv1", "ocv2", "oiv", "osv", "osdv"])
        assert count(["oiv"]) <= count(["oiv", "osv"]) <= full
        assert count(["c0", "ocv1"]) <= count(["c0", "ocv1", "osv"]) <= full

    def test_never_split_across_parts(self):
        """Every part selection keeps NPN orbits together."""
        rng = random.Random(8)
        for parts in (["oiv"], ["osv"], ["c0", "ocv1", "ocv2"], ["osdv"]):
            clf = FacePointClassifier(parts)
            for _ in range(5):
                tt = TruthTable.random(4, rng)
                variants = [tt.apply(random_transform(4, rng)) for _ in range(6)]
                assert clf.classify([tt, *variants]).num_classes == 1


class TestKnownClassCounts:
    """Classifier accuracy against the known NPN class counts.

    Over ALL functions of n variables there are exactly 4 (n=2) and
    14 (n=3) NPN classes; the full MSV achieves both exactly.
    """

    def test_all_two_variable_functions(self):
        tables = [TruthTable(2, bits) for bits in range(16)]
        result = FacePointClassifier().classify(tables)
        assert result.num_classes == 4

    def test_all_three_variable_functions(self):
        tables = [TruthTable(3, bits) for bits in range(256)]
        result = FacePointClassifier().classify(tables)
        assert result.num_classes == 14

    def test_all_one_variable_functions(self):
        tables = [TruthTable(1, bits) for bits in range(4)]
        assert FacePointClassifier().classify(tables).num_classes == 2
