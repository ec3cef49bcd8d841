"""Persistent NPN class library with witness-producing matching.

The missing layer between the classification engines and a reusable
Boolean-matching service: :class:`ClassLibrary` stores one canonical
representative per NPN class, persists to a versioned
``manifest.json`` + ``classes.npz`` artifact, and resolves queries to
``(class id, NPN transform witness)`` pairs via the signature-pruned
pairwise matcher.  See :mod:`repro.library.store` for the data model,
:mod:`repro.library.build` for building from a corpus and
:mod:`repro.library.migrate` for converting version-1 and version-2
artifacts.
"""

from repro.library.build import (
    build_exhaustive_library,
    build_library,
    library_from_result,
)
from repro.library.migrate import migrate_library
from repro.library.online import (
    DEFAULT_SEGMENT_BYTES,
    CompactionResult,
    LearningLibrary,
)
from repro.library.store import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_FILE,
    TABLES_FILE,
    ClassLibrary,
    LibraryFormatError,
    LibraryMatch,
    NPNClassEntry,
)
from repro.library.wal import (
    FSYNC_POLICIES,
    LOCK_FILE,
    WAL_DIR,
    LibraryLockedError,
    SegmentReplay,
    SegmentWriter,
    WalError,
    list_segments,
    replay_segment,
)

__all__ = [
    "ClassLibrary",
    "NPNClassEntry",
    "LibraryMatch",
    "LibraryFormatError",
    "LearningLibrary",
    "CompactionResult",
    "SegmentWriter",
    "SegmentReplay",
    "WalError",
    "LibraryLockedError",
    "migrate_library",
    "list_segments",
    "replay_segment",
    "build_library",
    "build_exhaustive_library",
    "library_from_result",
    "DEFAULT_SEGMENT_BYTES",
    "FSYNC_POLICIES",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILE",
    "TABLES_FILE",
    "WAL_DIR",
    "LOCK_FILE",
]
