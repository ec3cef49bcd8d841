"""Tests for ``library migrate``: version-1 artifacts become version 2.

``tests/data/library_v1`` is a version-1 (signature-digest id) library:
the 14 exhaustive n=3 classes and four n=5 classes whose representatives
are elected members, not orbit minima (one of them grouped three NPN
images), plus one write-ahead segment holding two minted n=6 classes.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.truth_table import TruthTable
from repro.library import (
    ClassLibrary,
    LearningLibrary,
    LibraryFormatError,
    build_exhaustive_library,
    list_segments,
    migrate_library,
    replay_segment,
)
from repro.library.store import MANIFEST_FILE

FIXTURE = Path(__file__).parent.parent / "data" / "library_v1"


def v1_representatives() -> tuple[list[TruthTable], int]:
    """Every representative the fixture stores, and its function count."""
    manifest = json.loads((FIXTURE / MANIFEST_FILE).read_text())
    tables = [
        TruthTable.from_hex(record["n"], record["representative"])
        for record in manifest["classes"]
    ]
    functions = manifest["num_functions"]
    for segment in list_segments(FIXTURE):
        for record in replay_segment(segment).records:
            tables.append(
                TruthTable.from_hex(record["n"], record["representative"])
            )
            functions += record["size"]
    return tables, functions


@pytest.fixture
def v1_copy(tmp_path):
    directory = tmp_path / "lib"
    shutil.copytree(FIXTURE, directory)
    return directory


def test_fixture_is_version_1_with_one_segment():
    manifest = json.loads((FIXTURE / MANIFEST_FILE).read_text())
    assert manifest["version"] == 1
    assert "id_scheme" not in manifest
    assert {record["n"] for record in manifest["classes"]} == {3, 5}
    (segment,) = list_segments(FIXTURE)
    assert [r["n"] for r in replay_segment(segment).records] == [6, 6]


@pytest.mark.parametrize(
    "opener",
    [ClassLibrary.load, LearningLibrary.open],
    ids=["load", "learning-open"],
)
def test_loading_v1_names_the_migrate_command(v1_copy, opener):
    with pytest.raises(LibraryFormatError) as info:
        opener(v1_copy)
    assert "version 1" in str(info.value)
    assert f"repro-npn library migrate --library {v1_copy}" in str(info.value)


def test_migrate_yields_verified_v2_library(v1_copy):
    _, functions = v1_representatives()
    result = migrate_library(v1_copy)
    assert result.path == v1_copy
    assert result.merged_records == 2
    assert result.removed_segments == 1
    assert result.num_classes == 20
    manifest = json.loads((v1_copy / MANIFEST_FILE).read_text())
    assert manifest["version"] == 2
    assert manifest["id_scheme"] == "canonical"
    migrated = ClassLibrary.load(v1_copy, verify=True)
    assert migrated.num_classes == 20
    assert migrated.num_functions == functions
    assert all(entry.exact for entry in migrated.entries())


def test_every_v1_and_wal_representative_matches(v1_copy):
    tables, _ = v1_representatives()
    migrate_library(v1_copy)
    assert list_segments(v1_copy) == []
    migrated = ClassLibrary.load(v1_copy)
    for tt, hit in zip(tables, migrated.match_many(tables)):
        assert hit is not None, tt
        # Offline re-verification: the scalar big-int apply.
        assert hit.representative.apply(hit.transform) == tt
        assert hit.class_id == migrated.lookup(tt).class_id


def test_exhaustive_classes_keep_their_built_ids_and_sizes(v1_copy):
    migrate_library(v1_copy)
    migrated = ClassLibrary.load(v1_copy)
    built = build_exhaustive_library(3)
    assert {
        e.class_id: e.size for e in migrated.entries() if e.n == 3
    } == {e.class_id: e.size for e in built.entries()}


def test_second_migrate_is_refused_and_changes_nothing(v1_copy):
    migrate_library(v1_copy)
    before = (v1_copy / MANIFEST_FILE).read_bytes()
    with pytest.raises(LibraryFormatError, match="already current"):
        migrate_library(v1_copy)
    assert (v1_copy / MANIFEST_FILE).read_bytes() == before


def test_migrate_of_missing_library_creates_nothing(tmp_path):
    with pytest.raises(LibraryFormatError, match="not found"):
        migrate_library(tmp_path / "nowhere")
    assert not (tmp_path / "nowhere").exists()


def test_migrated_library_learns_on(v1_copy):
    migrate_library(v1_copy)
    learner = LearningLibrary.open(v1_copy)
    try:
        tt = TruthTable.from_hex(6, "0123456789abcdef")
        assert learner.library.match(tt) is None
        assert learner.learn(tt).verify(tt)
    finally:
        learner.close()
