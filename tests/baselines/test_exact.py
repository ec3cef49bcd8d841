"""Tests for the bucketed exact classifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import GroupingResult
from repro.baselines.exact import ExactClassifier, ExactStats
from repro.baselines.exact_enum import ExactEnumerationClassifier, exact_npn_canonical
from repro.baselines.matcher import find_npn_transform
from repro.core.msv import DEFAULT_PARTS, compute_msv
from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.workloads.random_functions import random_tables
from tests.strategies import npn_transforms, truth_table_batches

#: Two n=5 orbits that share one MSV: the full signature bucket holds both.
COLLISION_PAIR = (TruthTable(5, 0x3DE88452), TruthTable(5, 0x83161D9A))


def sequential_classify(bucket_parts, tables):
    """The one-table-at-a-time loop the grouped rounds replaced, verbatim."""
    result = GroupingResult("exact")
    stats = ExactStats()
    buckets: dict = {}
    for tt in tables:
        stats.functions += 1
        signature = compute_msv(tt, bucket_parts)
        representatives = buckets.setdefault(signature, [])
        matched = None
        for ordinal, rep in enumerate(representatives):
            stats.match_attempts += 1
            if find_npn_transform(rep, tt) is not None:
                stats.match_successes += 1
                matched = ordinal
                break
        if matched is None:
            matched = len(representatives)
            representatives.append(tt)
            if matched:
                stats.collision_buckets.add(signature)
        result.add((signature, matched), tt)
    stats.buckets = len(buckets)
    return result, stats


def mixed_workload():
    """Mixed n=3..6 tables with planted NPN images and the collision pair."""
    rng = random.Random(26)
    tables = []
    for n in range(3, 7):
        seeds = random_tables(n, 10, seed=n)
        tables += seeds
        tables += [t.apply(random_transform(n, rng)) for t in seeds[:4] * 2]
    tables += COLLISION_PAIR
    tables += [t.apply(random_transform(5, rng)) for t in COLLISION_PAIR]
    rng.shuffle(tables)
    return tables


class TestExactClassifier:
    def test_known_counts_small(self):
        for n, expected in ((1, 2), (2, 4), (3, 14)):
            tables = [TruthTable(n, b) for b in range(1 << (1 << n))]
            assert ExactClassifier().count_classes(tables) == expected

    @pytest.mark.slow
    def test_known_count_n4(self):
        tables = (TruthTable(4, b) for b in range(1 << 16))
        assert ExactClassifier().count_classes(tables) == 222

    @pytest.mark.parametrize("n", [4, 5])
    def test_agrees_with_enumeration_on_random_sets(self, n):
        rng = random.Random(n)
        tables = [TruthTable.random(n, rng) for _ in range(60)]
        # Seed some deliberate equivalences.
        tables += [t.apply(random_transform(n, rng)) for t in tables[:20]]
        exact = ExactClassifier().count_classes(tables)
        enum = ExactEnumerationClassifier().count_classes(tables)
        assert exact == enum

    def test_orbit_collapses(self):
        rng = random.Random(3)
        tt = TruthTable.random(5, rng)
        orbit_sample = [tt.apply(random_transform(5, rng)) for _ in range(30)]
        result = ExactClassifier().classify([tt, *orbit_sample])
        assert result.num_classes == 1
        assert result.num_functions == 31

    def test_stats_populated(self):
        clf = ExactClassifier()
        rng = random.Random(4)
        tables = [TruthTable.random(4, rng) for _ in range(50)]
        tables += [t.apply(random_transform(4, rng)) for t in tables[:10]]
        clf.classify(tables)
        assert clf.stats.functions == 60
        assert clf.stats.buckets <= 60
        assert clf.stats.match_successes >= 10

    def test_weak_bucket_parts_stay_exact(self):
        """Bucketing by a weak invariant shifts work to the matcher only."""
        rng = random.Random(5)
        tables = [TruthTable.random(4, rng) for _ in range(80)]
        weak = ExactClassifier(bucket_parts=["oiv"]).count_classes(tables)
        strong = ExactClassifier().count_classes(tables)
        assert weak == strong

    def test_bucket_collision_instrumentation(self):
        """With a weak bucket key, collisions are detected and resolved."""
        clf = ExactClassifier(bucket_parts=["c0"])
        maj = TruthTable.majority(3)
        xor3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)
        result = clf.classify([maj, xor3])  # same |f| = 4, not equivalent
        assert result.num_classes == 2
        assert clf.stats.bucket_collisions == 1


class TestGroupedRounds:
    @pytest.mark.parametrize(
        "parts", [DEFAULT_PARTS, ("oiv",), ("c0",)], ids=["msv", "oiv", "c0"]
    )
    def test_matches_the_sequential_loop(self, parts):
        """Same keys, group order, members and stats as the scalar loop."""
        tables = mixed_workload()
        reference, reference_stats = sequential_classify(parts, tables)
        clf = ExactClassifier(bucket_parts=parts)
        result = clf.classify(tables)
        assert result.method == reference.method
        assert list(result.groups.items()) == list(reference.groups.items())
        assert clf.stats == reference_stats

    def test_collision_pair_splits_under_the_full_msv(self):
        clf = ExactClassifier()
        result = clf.classify(COLLISION_PAIR)
        assert result.num_classes == 2
        assert clf.stats.bucket_collisions == 1
        assert clf.stats.match_attempts == 1
        assert clf.stats.match_successes == 0


def _partition(groups):
    return sorted(tuple(sorted(tt.bits for tt in members)) for members in groups)


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_partition_equals_exhaustive_canonical_partition(n, data):
    """Drawn tables plus random NPN images: the exact partition equals the
    partition by exhaustive canonical form."""
    tables = data.draw(truth_table_batches(n=n, min_size=1, max_size=5))
    images = [
        tt.apply(transform)
        for tt in tables
        for transform in data.draw(st.lists(npn_transforms(n=n), max_size=3))
    ]
    tables = data.draw(st.permutations(tables + images))
    by_form: dict = {}
    for tt in tables:
        by_form.setdefault(exact_npn_canonical(tt).representative, []).append(tt)
    result = ExactClassifier().classify(tables)
    assert _partition(result.groups.values()) == _partition(by_form.values())
