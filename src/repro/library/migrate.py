"""One-shot conversion of a version-1 or version-2 library to version 3.

Both old formats store every class twice: a JSON record per class in
``manifest.json`` and the same columns in ``classes.npz`` (``ns``,
``sizes``, ``exact``, ``reps``), cross-checked here record by row.
Version-1 ids are MSV digests ``n{n}-{digest}`` (with ``-1``, ``-2`` …
overflow slots) over elected members, and are dropped; version-2 ids
are already ``n{n}-c{hex}`` orbit minima, and must name the canonical
form their row converts to.  :meth:`ClassLibrary.load` refuses both and
names ``repro-npn library migrate --library DIR``, which calls
:func:`migrate_library`.  This module is the only code that reads them.
"""

from __future__ import annotations

from pathlib import Path

from repro.canonical.form import canonical_class_id, canonical_forms
from repro.core.truth_table import TruthTable
from repro.library.online import CompactionResult, parse_record
from repro.library.store import (
    MANIFEST_FILE,
    TABLE_ARRAYS,
    TABLES_FILE,
    LibraryFormatError,
    _empty_library,
    _read_manifest,
    _read_tables,
    _table_rows,
)
from repro.library.wal import (
    acquire_learner_lock,
    list_segments,
    release_learner_lock,
    replay_segment,
)

__all__ = ["LEGACY_VERSIONS", "migrate_library"]

#: The manifest versions this module converts.
LEGACY_VERSIONS = (1, 2)
#: A version-2 manifest's ``id_scheme`` value: orbit-minimum ids.
ID_SCHEME = "canonical"


def migrate_library(directory: str | Path) -> CompactionResult:
    """Rewrite the version-1 or version-2 library at ``directory`` as version 3.

    Under the learner lock, the old image and every segment's intact
    records are canonicalized in one batch into a fresh library, sizes of
    one orbit summed; it is saved in place and the absorbed segments
    deleted.  ``merged_records`` counts the records folded in on top of
    the old image.  Raises :class:`LibraryFormatError` (without touching
    the files) when the directory holds no library, one of another
    version — a second migration included — or a malformed one.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.is_file():
        raise LibraryFormatError(f"{manifest_path}: library manifest not found")
    acquire_learner_lock(directory)
    try:
        manifest = _read_manifest(
            manifest_path,
            versions=LEGACY_VERSIONS,
            fields=("parts", "num_classes", "classes"),
        )
        named = manifest["version"] == 2
        if named and manifest.get("id_scheme") != ID_SCHEME:
            raise LibraryFormatError(
                f"{directory}: version-2 manifest carries unknown id "
                f"scheme {manifest.get('id_scheme')!r}"
            )
        arrays = _read_tables(directory / TABLES_FILE, (*TABLE_ARRAYS, "exact"))
        library = _empty_library(directory, manifest)
        rows = _read_entries(directory, manifest, arrays)
        legacy_classes = len(rows)
        segments = list_segments(directory)
        for segment in segments:
            for record in replay_segment(segment).records:
                table, size = parse_record(record, segment)
                rows.append((str(record["class_id"]), table, size))
        forms = canonical_forms([table for _, table, _ in rows])
        for form, (stored_id, _, size) in zip(forms, rows):
            if named and stored_id != canonical_class_id(form):
                raise LibraryFormatError(
                    f"{directory}: class {stored_id!r} does not name "
                    f"its canonical form {canonical_class_id(form)!r} "
                    f"— the artifact is corrupted"
                )
            library.add_class(form, size=size, canonical_rep=True)
        path = library.save(directory)
        for segment in segments:
            segment.unlink()
    finally:
        release_learner_lock(directory)
    return CompactionResult(
        merged_records=len(rows) - legacy_classes,
        removed_segments=len(segments),
        num_classes=library.num_classes,
        path=path,
    )


def _read_entries(directory: Path, manifest: dict, arrays: dict) -> list:
    """``(id, representative, size)`` per manifest record, checked against the npz.

    Record types, array shapes and arities are checked before any row is
    read, so every malformed artifact raises :class:`LibraryFormatError`.
    """
    records = manifest["classes"]
    if not isinstance(records, list) or not all(
        isinstance(record, dict) and isinstance(record.get("id"), str)
        for record in records
    ):
        raise LibraryFormatError(
            f"{directory}: manifest 'classes' must be a list of records "
            f"that each carry a string 'id'"
        )
    exact = arrays["exact"]
    rows = _table_rows(directory, arrays)
    if exact.ndim != 1 or not (
        len(records) == manifest["num_classes"] == len(exact) == len(rows)
    ):
        raise LibraryFormatError(
            f"{directory}: manifest and {TABLES_FILE} disagree on the "
            f"number of classes"
        )
    entries = []
    for record, flag, (table, size) in zip(records, exact.tolist(), rows):
        _check_record(directory, record, table, size, bool(flag))
        entries.append((record["id"], table, size))
    return entries


def _check_record(
    directory: Path, record: dict, table: TruthTable, size: int, exact: bool
) -> None:
    """Cross-check one manifest record against its npz row."""
    stored = (
        record.get("n"),
        record.get("size"),
        bool(record.get("exact")),
        record.get("representative"),
    )
    derived = (table.n, size, exact, table.to_hex())
    if stored != derived:
        raise LibraryFormatError(
            f"{directory}: manifest record {record.get('id')!r} disagrees "
            f"with {TABLES_FILE} ({stored} != {derived})"
        )
