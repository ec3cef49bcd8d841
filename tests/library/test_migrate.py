"""Tests for ``library migrate``: version-1 and version-2 artifacts become version 3.

``tests/data/library_v1`` is a version-1 (signature-digest id) library:
the 14 exhaustive n=3 classes and four n=5 classes whose representatives
are elected members, not orbit minima (one of them grouped three NPN
images), plus one write-ahead segment holding two minted n=6 classes.

``tests/data/library_v2`` is a version-2 library written by the release
before version 3: the 14 exhaustive n=3 classes, three n=5 and two n=6
classes, plus one write-ahead segment holding a minted n=4 and a minted
n=6 class.  Its manifest records carry the canonical ``n{n}-c{hex}`` ids
and sizes that migration must keep.
"""

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.canonical.form import canonical_class_id, canonical_form
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

DATA = Path(__file__).parent.parent / "data"
FIXTURE = DATA / "library_v1"
FIXTURES = {"v1": FIXTURE, "v2": DATA / "library_v2"}


def stored_rows(fixture: Path) -> list[tuple[str, TruthTable, int]]:
    """``(stored id, representative, size)`` of every image and WAL record."""
    manifest = json.loads((fixture / MANIFEST_FILE).read_text())
    rows = [
        (
            record["id"],
            TruthTable.from_hex(record["n"], record["representative"]),
            record["size"],
        )
        for record in manifest["classes"]
    ]
    for segment in list_segments(fixture):
        for record in replay_segment(segment).records:
            rows.append(
                (
                    record["class_id"],
                    TruthTable.from_hex(record["n"], record["representative"]),
                    record["size"],
                )
            )
    return rows


def expected_classes(version: str) -> Counter:
    """Class id -> summed size the migration must produce.

    Version 2 stores canonical ids already, so they are the expectation
    as written; version-1 ids are digests, so its ids are derived from
    each representative's canonical form.
    """
    sizes: Counter = Counter()
    for stored_id, table, size in stored_rows(FIXTURES[version]):
        if version == "v1":
            stored_id = canonical_class_id(canonical_form(table))
        sizes[stored_id] += size
    return sizes


@pytest.fixture
def v1_copy(tmp_path):
    directory = tmp_path / "lib"
    shutil.copytree(FIXTURE, directory)
    return directory


@pytest.fixture(params=sorted(FIXTURES))
def legacy_copy(request, tmp_path):
    """``(version, directory)`` of a scratch copy of each old fixture."""
    directory = tmp_path / "lib"
    shutil.copytree(FIXTURES[request.param], directory)
    return request.param, directory


def test_fixture_is_version_1_with_one_segment():
    manifest = json.loads((FIXTURE / MANIFEST_FILE).read_text())
    assert manifest["version"] == 1
    assert "id_scheme" not in manifest
    assert {record["n"] for record in manifest["classes"]} == {3, 5}
    (segment,) = list_segments(FIXTURE)
    assert [r["n"] for r in replay_segment(segment).records] == [6, 6]


def test_fixture_is_version_2_with_one_segment():
    fixture = FIXTURES["v2"]
    manifest = json.loads((fixture / MANIFEST_FILE).read_text())
    assert manifest["version"] == 2
    assert manifest["id_scheme"] == "canonical"
    assert Counter(record["n"] for record in manifest["classes"]) == {
        3: 14,
        5: 3,
        6: 2,
    }
    (segment,) = list_segments(fixture)
    assert [r["n"] for r in replay_segment(segment).records] == [4, 6]


@pytest.mark.parametrize(
    "opener",
    [ClassLibrary.load, LearningLibrary.open],
    ids=["load", "learning-open"],
)
def test_loading_names_the_migrate_command(legacy_copy, opener):
    version, directory = legacy_copy
    with pytest.raises(LibraryFormatError) as info:
        opener(directory)
    assert f"version {version[1:]}" in str(info.value)
    assert f"repro-npn library migrate --library {directory}" in str(
        info.value
    )


def test_migrate_yields_verified_v3_library(legacy_copy):
    version, directory = legacy_copy
    expected = expected_classes(version)
    result = migrate_library(directory)
    assert result.path == directory
    assert result.merged_records == 2
    assert result.removed_segments == 1
    assert result.num_classes == len(expected)
    manifest = json.loads((directory / MANIFEST_FILE).read_text())
    assert manifest["version"] == 3
    migrated = ClassLibrary.load(directory)
    assert migrated.num_functions == sum(expected.values())
    for entry in migrated.entries():
        assert entry.representative == canonical_form(entry.representative)


def test_migration_keeps_the_stored_ids_and_sizes(legacy_copy):
    version, directory = legacy_copy
    migrate_library(directory)
    migrated = ClassLibrary.load(directory)
    assert {
        e.class_id: e.size for e in migrated.entries()
    } == expected_classes(version)


def test_every_stored_and_wal_representative_matches(legacy_copy):
    version, directory = legacy_copy
    tables = [table for _, table, _ in stored_rows(FIXTURES[version])]
    migrate_library(directory)
    assert list_segments(directory) == []
    migrated = ClassLibrary.load(directory)
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


def test_second_migrate_is_refused_and_changes_nothing(tmp_path):
    for version, fixture in FIXTURES.items():
        directory = tmp_path / version
        shutil.copytree(fixture, directory)
        migrate_library(directory)
        before = {
            name: (directory / name).read_bytes()
            for name in (MANIFEST_FILE, "classes.npz")
        }
        with pytest.raises(LibraryFormatError, match="already current"):
            migrate_library(directory)
        assert before == {
            name: (directory / name).read_bytes() for name in before
        }


def test_v2_record_naming_another_class_is_refused(tmp_path):
    directory = tmp_path / "lib"
    shutil.copytree(FIXTURES["v2"], directory)
    manifest = json.loads((directory / MANIFEST_FILE).read_text())
    manifest["classes"][0]["id"] = manifest["classes"][1]["id"]
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest))
    with pytest.raises(LibraryFormatError, match="does not name"):
        migrate_library(directory)
    assert list_segments(directory)  # nothing absorbed, nothing deleted


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
        assert learner.learn([tt])[0].verify(tt)
    finally:
        learner.close()
