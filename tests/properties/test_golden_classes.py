"""Golden regression corpus: pinned class counts and bucket digests.

``tests/data/golden_classes.json`` pins, for fixed seeds at n = 4..6,
the class count and the order-sensitive bucket digest of the face/point
classifier.  Both signature engines must keep reproducing those digests
byte-for-byte, and the class library built from the buckets must resolve
every corpus function to a verified witness — so any future refactor
that silently splits, merges, or reorders an orbit fails loudly here
instead of surfacing as a wrong experiment table months later.

To bless an *intentional* change, rerun
``PYTHONPATH=src python -m tests.data.generate_golden_classes``.
"""

import json
from pathlib import Path

import pytest

from repro.baselines.exact import ExactClassifier
from repro.core.classifier import FacePointClassifier
from repro.engine import BatchedClassifier
from repro.library import build_library, library_from_result

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_classes.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

assert {spec["n"] for spec in GOLDEN} == {4, 5, 6}, "golden corpus must cover n=4..6"


def _tables(spec):
    from tests.data.generate_golden_classes import workload_tables

    return workload_tables(spec)


@pytest.fixture(scope="module", params=GOLDEN, ids=lambda spec: f"n{spec['n']}")
def golden_case(request):
    spec = request.param
    return spec, _tables(spec)


class TestEnginesReproduceGoldenBuckets:
    def test_perfn_engine(self, golden_case):
        spec, tables = golden_case
        result = FacePointClassifier().classify(tables)
        assert result.num_classes == spec["num_classes"]
        assert result.buckets_digest() == spec["buckets_digest"]

    def test_batched_engine(self, golden_case):
        spec, tables = golden_case
        result = BatchedClassifier().classify(tables)
        assert result.num_classes == spec["num_classes"]
        assert result.buckets_digest() == spec["buckets_digest"]


class TestLibraryIdentityPins:
    def test_class_ids_and_representatives_unchanged(self, golden_case):
        """Class ids (and the canonical/elected representatives behind
        them) are byte-identical to the golden data — the gather-kernel
        build path must not move a single class."""
        spec, tables = golden_case
        result = FacePointClassifier().classify(tables)
        library = library_from_result(result)
        derived = {
            entry.class_id: entry.representative.to_hex()
            for entry in library.entries()
        }
        assert derived == spec["classes"]

    def test_batched_engine_builds_identical_ids(self, golden_case):
        spec, tables = golden_case
        result = BatchedClassifier().classify(tables)
        library = library_from_result(result)
        assert {
            e.class_id: e.representative.to_hex() for e in library.entries()
        } == spec["classes"]


class TestLibraryMatchPath:
    def test_library_resolves_every_corpus_function(self, golden_case):
        """Build a library from the buckets; every input must match back.

        The witness is verified against the stored representative for
        every query — the acceptance contract of `library match`.
        """
        spec, tables = golden_case
        result = FacePointClassifier().classify(tables)
        library = library_from_result(result)
        assert library.num_classes == spec["num_classes"]
        assert library.num_functions == spec["num_functions"]
        seen_classes = set()
        for tt in tables:
            hit = library.match(tt)
            assert hit is not None, f"library lost {tt!r}"
            assert hit.representative.apply(hit.transform) == tt
            seen_classes.add(hit.class_id)
        assert len(seen_classes) == spec["num_classes"]


class TestExactClassifierAgainstGolden:
    """The exact engine must reproduce the golden class structure.

    Its keys are ``(signature, ordinal)`` pairs in a plain grouping (no
    bucket digest), so the pins here are the class count, the member
    partition, and the portable ids of the exact library build.
    """

    def test_counts_and_partition_match(self, golden_case):
        spec, tables = golden_case
        exact = ExactClassifier().classify(tables)
        reference = FacePointClassifier().classify(tables)
        assert exact.num_classes == spec["num_classes"]

        def partition(result):
            return sorted(
                tuple(sorted(tt.bits for tt in members))
                for members in result.groups.values()
            )

        assert partition(exact) == partition(reference)

    def test_library_ids_are_golden_canonical_ids(self, golden_case):
        spec, tables = golden_case
        library = build_library(tables, exact=True)
        assert {
            e.class_id: e.representative.to_hex() for e in library.entries()
        } == spec["classes"]
