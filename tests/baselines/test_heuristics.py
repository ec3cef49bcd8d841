"""Tests for the reconstructed heuristic baselines (Huang/Petkovska/Zhou).

These methods are deliberately inexact; what the tests pin down is
(1) determinism, (2) the *direction* of their error — they may split NPN
classes but must never merge distinct ones — and (3) the accuracy ordering
Table III reports: huang13 (worst) >= petkovska16/zhou20 >= exact.
"""

import random

import pytest

from repro.baselines import get_classifier
from repro.baselines.base import registered_classifiers
from repro.baselines.exact import ExactClassifier
from repro.baselines.huang13 import Huang13Classifier, huang_canonical
from repro.baselines.petkovska16 import Petkovska16Classifier, petkovska_canonical
from repro.baselines.refinement import (
    ordering_transform,
    phase_normalize,
    refine_partition,
)
from repro.baselines.zhou20 import Zhou20Classifier, zhou_canonical
from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable

HEURISTICS = [Huang13Classifier, Petkovska16Classifier, Zhou20Classifier]


def random_set(n, count, seed, with_equivalents=True):
    rng = random.Random(seed)
    tables = [TruthTable.random(n, rng) for _ in range(count)]
    if with_equivalents:
        tables += [t.apply(random_transform(n, rng)) for t in tables[: count // 2]]
    return tables


class TestRefinementMachinery:
    def test_phase_normalize_minority(self):
        rng = random.Random(0)
        for _ in range(20):
            tt = TruthTable.random(4, rng)
            normalized, _, _ = phase_normalize(tt)
            assert 2 * normalized.count_ones() <= 1 << normalized.n
            for i in range(4):
                assert normalized.cofactor_count(i, 1) <= (
                    normalized.cofactor_count(i, 0)
                )

    def test_phase_normalize_transform_consistent(self):
        rng = random.Random(1)
        for _ in range(20):
            tt = TruthTable.random(4, rng)
            normalized, out_phase, in_phase = phase_normalize(tt)
            rebuilt = tt.flip_inputs(in_phase)
            if out_phase:
                rebuilt = ~rebuilt
            assert rebuilt == normalized

    def test_refine_partition_blocks_cover_all_vars(self):
        rng = random.Random(2)
        for n in range(1, 6):
            tt = TruthTable.random(n, rng)
            blocks = refine_partition(tt)
            flat = sorted(v for block in blocks for v in block)
            assert flat == list(range(n))

    def test_refine_partition_symmetric_stay_together(self):
        maj = TruthTable.majority(3)
        assert refine_partition(maj) == [[0, 1, 2]]

    def test_refine_partition_splits_asymmetric(self):
        tt = TruthTable.from_function(3, lambda a, b, c: (a & b) | c)
        blocks = refine_partition(tt)
        assert [sorted(b) for b in blocks if len(b) == 2] == [[0, 1]]

    def test_ordering_transform_places_variables(self):
        tt = TruthTable.from_function(3, lambda a, b, c: (a & b) | c)
        transform = ordering_transform(3, [2, 0, 1], 0, 0)
        moved = tt.apply(transform)
        # Original variable 2 (the OR input) is now variable 0.
        assert moved == TruthTable.from_function(
            3, lambda a, b, c: (b & c) | a
        )


class TestHeuristicCharacter:
    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_deterministic(self, cls):
        clf = cls()
        tt = TruthTable.random(5, random.Random(3))
        assert clf.key(tt) == clf.key(tt)

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_canonical_form_is_orbit_member(self, cls):
        """The claimed canonical form is NPN-equivalent to the input."""
        from repro.baselines.matcher import are_npn_equivalent

        rng = random.Random(4)
        clf = cls()
        for _ in range(10):
            tt = TruthTable.random(4, rng)
            canon = TruthTable(4, clf.key(tt))
            assert are_npn_equivalent(tt, canon)

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_never_merges_distinct_classes(self, cls):
        """Heuristic errors only split; equal keys imply NPN equivalence."""
        from repro.baselines.matcher import are_npn_equivalent

        rng = random.Random(5)
        clf = cls()
        seen = {}
        for _ in range(120):
            tt = TruthTable.random(4, rng)
            key = clf.key(tt)
            if key in seen:
                assert are_npn_equivalent(seen[key], tt)
            else:
                seen[key] = tt

    @pytest.mark.parametrize("cls", HEURISTICS)
    def test_class_count_at_least_exact(self, cls):
        tables = random_set(4, 80, seed=6)
        exact = ExactClassifier().count_classes(tables)
        assert cls().count_classes(tables) >= exact

    def test_accuracy_ordering(self):
        """Table III shape: huang13 splits far more than the near-exact two."""
        tables = random_set(5, 150, seed=7)
        exact = ExactClassifier().count_classes(tables)
        huang = Huang13Classifier().count_classes(tables)
        petkovska = Petkovska16Classifier().count_classes(tables)
        zhou = Zhou20Classifier().count_classes(tables)
        assert exact <= petkovska <= huang
        assert exact <= zhou <= huang

    def test_huang_canonical_properties(self):
        rng = random.Random(8)
        for _ in range(20):
            tt = TruthTable.random(4, rng)
            canon = huang_canonical(tt)
            # Phase-normalised: minority ones globally.
            assert 2 * canon.count_ones() <= 1 << canon.n

    def test_petkovska_budget_zero_degrades_gracefully(self):
        tables = random_set(4, 60, seed=9)
        cheap = Petkovska16Classifier(budget=0).count_classes(tables)
        rich = Petkovska16Classifier(budget=512).count_classes(tables)
        exact = ExactClassifier().count_classes(tables)
        assert exact <= rich <= cheap

    def test_zhou_descent_reaches_local_minimum(self):
        rng = random.Random(10)
        from repro.core import bitops

        for _ in range(10):
            tt = TruthTable.random(4, rng)
            canon = zhou_canonical(tt)
            table = canon.bits
            for i in range(4):
                assert bitops.flip_input(table, 4, i) >= table
            for i in range(3):
                assert bitops.swap_inputs(table, 4, i, i + 1) >= table


class TestRegistry:
    def test_all_expected_names(self):
        names = registered_classifiers()
        for expected in ("kitty", "huang13", "petkovska16", "zhou20", "exact", "ours"):
            assert expected in names

    def test_get_classifier_roundtrip(self):
        clf = get_classifier("huang13")
        assert isinstance(clf, Huang13Classifier)
        with pytest.raises(ValueError):
            get_classifier("nonexistent")

    def test_ours_adapter_counts_like_core(self):
        from repro.core.classifier import FacePointClassifier

        tables = random_set(4, 60, seed=11)
        adapter = get_classifier("ours")
        core = FacePointClassifier()
        assert adapter.count_classes(tables) == core.count_classes(tables)
