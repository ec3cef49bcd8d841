"""One-shot conversion of a version-1 library to the current format.

Version-1 libraries named each class by its MSV digest, ``n{n}-{digest}``,
with ``-1``, ``-2`` … overflow slots for digest-colliding orbits, and
stored an elected member rather than the orbit minimum above n = 4.
:meth:`ClassLibrary.load` refuses them and names the command that calls
:func:`migrate_library`: ``repro-npn library migrate --library DIR``.
This module is the only code that reads version 1.
"""

from __future__ import annotations

from pathlib import Path

from repro.canonical.form import canonical_forms
from repro.library.online import CompactionResult, parse_record
from repro.library.store import (
    MANIFEST_FILE,
    TABLES_FILE,
    LibraryFormatError,
    _empty_library,
    _read_entries,
    _read_manifest,
    _read_tables,
)
from repro.library.wal import (
    acquire_learner_lock,
    list_segments,
    release_learner_lock,
    replay_segment,
)

__all__ = ["LEGACY_VERSION", "migrate_library"]

#: The digest-id manifest version this module converts.
LEGACY_VERSION = 1


def migrate_library(directory: str | Path) -> CompactionResult:
    """Rewrite the version-1 library at ``directory`` as version 2.

    Under the learner lock, the version-1 image (each record checked
    against ``classes.npz``; the digest ids are dropped) and every
    segment's intact records are canonicalized per arity into a fresh
    library, sizes of one orbit summed; it is saved in place and the
    absorbed segments deleted.  ``merged_records`` counts the records
    folded in on top of the version-1 image.  Raises
    :class:`LibraryFormatError` (without touching the files) when the
    directory holds no library, or one that is not version 1 — a second
    migration included.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.is_file():
        raise LibraryFormatError(f"{manifest_path}: library manifest not found")
    acquire_learner_lock(directory)
    try:
        manifest = _read_manifest(manifest_path, version=LEGACY_VERSION)
        arrays = _read_tables(directory / TABLES_FILE)
        library = _empty_library(directory, manifest)
        rows = [
            (entry.representative, entry.size)
            for entry in _read_entries(directory, manifest, arrays)
        ]
        legacy_classes = len(rows)
        segments = list_segments(directory)
        for segment in segments:
            rows.extend(
                parse_record(record, segment)
                for record in replay_segment(segment).records
            )
        by_arity: dict[int, list[tuple]] = {}
        for table, size in rows:
            by_arity.setdefault(table.n, []).append((table, size))
        for n, batch in sorted(by_arity.items()):
            forms = canonical_forms([table for table, _ in batch], n)
            for form, (_, size) in zip(forms, batch):
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
