"""The NPN-invariance harness: no engine may ever split an orbit.

The never-split property is the one contract every classification layer
must preserve (paper Section IV): NPN-equivalent functions always share a
bucket, because every MSV part is invariant under input permutation,
input negation and (via phase canonicalisation) output negation.  This
suite enforces it for both signature engines — the per-function
``FacePointClassifier`` and the vectorized ``BatchedClassifier`` — from
two directions:

* **Hypothesis orbits** (n = 3..6, shrinking): the
  :func:`tests.strategies.npn_orbits` strategy builds NPN images by
  applying input permutations and input/output negations *directly to
  truth tables* through ``TruthTable`` primitives — deliberately not via
  ``repro.core.transforms.NPNTransform`` — so a bug in the transform
  algebra cannot mask a bug in the signatures, or vice versa.  A
  violation shrinks to the smallest arity and simplest orbit that still
  splits.  A seeded orbit soup adds n = 6 and shuffled multi-orbit
  batches, and the engines' bucket parity is asserted on it.
* **Exhaustive small n**: every one of the ``2^(2^n)`` functions at
  n ≤ 3 (and a strided slice of n = 4), asserting all engines produce
  identical ``ClassificationResult`` buckets and that the class counts
  hit the known NPN class numbers (1, 2, 4, 14 for n = 0..3).
"""

import random

import pytest
from hypothesis import given

from repro.core.classifier import FacePointClassifier
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier
from tests.strategies import npn_orbits

#: Number of NPN equivalence classes over all n-variable functions
#: (OEIS A000370).  At n <= 3 the MSV is a perfect discriminator, so the
#: signature classifiers must hit these exactly, not just bound them.
KNOWN_NPN_CLASSES = {0: 1, 1: 2, 2: 4, 3: 14}

#: Engine factories; fresh instances per test so caches never leak
#: between cases.
ENGINES = {
    "perfn": lambda: FacePointClassifier(),
    "batched": lambda: BatchedClassifier(),
}


# ----------------------------------------------------------------------
# Seeded random orbit generator
# ----------------------------------------------------------------------


def random_npn_image(tt: TruthTable, rng: random.Random) -> TruthTable:
    """A random NPN image built from truth-table primitives only.

    Input negations, then an input permutation, then optionally the
    output complement — each applied directly to the table, never through
    the ``NPNTransform`` group algebra.
    """
    out = tt
    if tt.n:
        out = out.flip_inputs(rng.getrandbits(tt.n))
    perm = list(range(tt.n))
    rng.shuffle(perm)
    out = out.permute(tuple(perm))
    if rng.getrandbits(1):
        out = ~out
    return out


def random_orbit(n: int, size: int, rng: random.Random) -> list[TruthTable]:
    """A seed function plus ``size - 1`` random NPN images of it."""
    seed_function = TruthTable.random(n, rng)
    return [seed_function] + [
        random_npn_image(seed_function, rng) for _ in range(size - 1)
    ]


def bucket_index_by_table(result) -> dict[TruthTable, int]:
    """Map every classified table to the index of its bucket."""
    placement: dict[TruthTable, int] = {}
    for index, members in enumerate(result.groups.values()):
        for tt in members:
            placement[tt] = index
    return placement


class TestOrbitGenerator:
    """The generator itself must produce genuine NPN-equivalent images."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_images_are_exactly_npn_equivalent(self, n):
        from repro.baselines.guided import guided_exact_canonical

        rng = random.Random(500 + n)
        seed_function = TruthTable.random(n, rng)
        reference = guided_exact_canonical(seed_function)
        for _ in range(6):
            image = random_npn_image(seed_function, rng)
            assert guided_exact_canonical(image) == reference

    def test_orbit_is_seed_deterministic(self):
        first = random_orbit(4, 8, random.Random(99))
        second = random_orbit(4, 8, random.Random(99))
        assert first == second


class TestNeverSplit:
    """Property: every engine keeps each orbit inside a single bucket."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @given(npn_orbits(max_images=6))
    def test_orbits_never_split(self, engine, orbit):
        seed_function, images = orbit
        flat = [seed_function, *images]
        result = ENGINES[engine]().classify(flat)
        assert result.num_functions == len(flat)
        # The whole orbit is NPN-equivalent and the MSV is invariant, so
        # the engine must produce exactly one bucket holding everything.
        assert result.num_classes == 1, (
            f"orbit split into {result.num_classes} buckets"
        )
        placement = bucket_index_by_table(result)
        assert len({placement[tt] for tt in flat}) == 1

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @given(npn_orbits(max_images=8))
    def test_orbit_signatures_are_equal(self, engine, orbit):
        """Stronger than bucketing: the signatures themselves coincide."""
        seed_function, images = orbit
        flat = [seed_function, *images]
        classifier = ENGINES[engine]()
        if hasattr(classifier, "signatures"):
            signatures = classifier.signatures(flat)
        else:
            signatures = [classifier.signature(tt) for tt in flat]
        assert len(set(signatures)) == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_orbit_soup_never_splits(self, n):
        """Seeded soup: many shuffled orbits in one batch."""
        rng = random.Random(1000 + n)
        orbits = [random_orbit(n, 6, rng) for _ in range(8)]
        flat = [tt for orbit in orbits for tt in orbit]
        rng.shuffle(flat)
        result = BatchedClassifier().classify(flat)
        assert result.num_functions == len(flat)
        # Sound, never-split: at most one bucket per planted orbit.
        assert result.num_classes <= len(orbits)
        placement = bucket_index_by_table(result)
        for orbit in orbits:
            buckets = {placement[tt] for tt in orbit}
            assert len(buckets) == 1, f"orbit split across buckets {buckets}"

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_engines_agree_on_orbit_workload(self, n):
        """Both engines produce byte-identical buckets on orbit soup."""
        rng = random.Random(3000 + n)
        flat = [tt for _ in range(6) for tt in random_orbit(n, 5, rng)]
        rng.shuffle(flat)
        digests = {
            name: ENGINES[name]().classify(flat).buckets_digest()
            for name in sorted(ENGINES)
        }
        assert len(set(digests.values())) == 1, digests


class TestExhaustiveParity:
    """All 2^(2^n) functions at small n: exact parity, exact class counts."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_function_small_n(self, n):
        tables = [TruthTable(n, bits) for bits in range(1 << (1 << n))]
        reference = FacePointClassifier().classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert batched.buckets_digest() == reference.buckets_digest()
        assert reference.num_classes == KNOWN_NPN_CLASSES[n]
        assert reference.num_functions == len(tables)

    def test_sampled_slice_n4(self):
        # A strided sweep across the full 2^16 space plus its complement
        # closure, so output-phase canonicalisation is exercised too.
        bits = list(range(0, 1 << 16, 131))
        tables = [TruthTable(4, b) for b in bits]
        tables += [~tt for tt in tables[:100]]
        reference = FacePointClassifier().classify(tables)
        batched = BatchedClassifier().classify(tables)
        assert batched.buckets_digest() == reference.buckets_digest()
        # 222 NPN classes exist at n=4; a broad sample cannot exceed that.
        assert reference.num_classes <= 222
