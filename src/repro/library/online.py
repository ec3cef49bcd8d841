"""Learn-on-miss: grow a class library from served traffic.

A one-shot library answers the queries its build corpus anticipated and
throws everything else away as a miss.  :class:`LearningLibrary` turns
the library into a living artifact: a query matching no stored class is
canonicalized, minted as a new class (id derived exactly like built
classes, from the canonical form), and appended to a write-ahead
segment (:mod:`repro.library.wal`) so the knowledge survives a crash
without rewriting the manifest+npz image per miss.

Lifecycle::

    open()     claim the learner lock (wal/LOCK), load manifest+npz (if
               present), replay WAL segments — tolerating a torn final
               record — into memory
    learn()    a batch of misses -> canonical forms + witnesses (reusing
               the match's) -> add_class (or resolve an existing id)
               -> WAL append
    compact()  rewrite manifest+npz from the in-memory state, delete
               the segments it absorbed (lock stays held)
    close()    seal the active segment and release the learner lock

Compaction runs in three situations: the serving drain hook
(:meth:`repro.service.coalescer.Coalescer.stop`), the explicit
``repro-npn library compact`` command, and automatically when the
active segment crosses ``segment_bytes``.  It is **byte-deterministic
for a fixed record set**: records merge by class id with summed sizes
— an order-independent fold — and
:meth:`ClassLibrary.save` already writes canonical bytes, so any
arrival order, segmentation, or crash/replay history of the same
records compacts to the identical image.

Minting keeps the library's representative contract: the minted
representative is the exact orbit minimum at every arity and the id is
``n{n}-c{hex}`` — a pure function of the orbit, so ids cannot collide.
The returned :class:`LibraryMatch` carries a verified witness, so a
learned answer is exactly as trustworthy as a built one.  At every
arity that witness comes from the same
:func:`~repro.canonical.form.canonical_forms_with_transforms` call as
the form — the match's own at ``n <= KERNEL_MATCH_VARS``, one call per
learned batch for the rest: the inverse of its argmin transform,
taken and checked as one column batch by
:func:`~repro.canonical.form.checked_witnesses`, with one
:class:`~repro.core.transforms.NPNTransform` built per answer.
Replay canonicalizes every WAL record in one
:func:`~repro.canonical.form.canonical_forms` call.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.canonical.form import canonical_form  # noqa: F401 - a perfbench span target
from repro.canonical.form import (
    canonical_class_id,
    canonical_forms,
    canonical_forms_with_transforms,
    checked_witnesses,
)
from repro.core.transforms import TransformColumns
from repro.core.truth_table import TruthTable
from repro.library.store import ClassLibrary, LibraryMatch, MANIFEST_FILE
from repro.library.wal import (
    SegmentWriter,
    WalError,
    acquire_learner_lock,
    list_segments,
    release_learner_lock,
    replay_segment,
    segment_path,
)

__all__ = [
    "LearningLibrary",
    "CompactionResult",
    "DEFAULT_SEGMENT_BYTES",
]

#: Active-segment size that trips an automatic compaction.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: Record fields every WAL entry must carry.
_RECORD_FIELDS = ("class_id", "n", "representative", "size", "exact")

_REG = obs.registry()
_MINTED = _REG.counter(
    "repro_library_classes_minted_total",
    "Classes minted by learn-on-miss.",
)
_COMPACTIONS = _REG.counter(
    "repro_library_compactions_total",
    "WAL-into-image compactions (no-op calls excluded).",
)
_COMPACTION_SECONDS = _REG.histogram(
    "repro_library_compaction_seconds",
    "Wall-clock time of one WAL compaction (image save + segment unlink).",
)


@dataclass(frozen=True)
class CompactionResult:
    """What one compaction (or one migration) did.

    Attributes:
        merged_records: WAL records absorbed into the image.
        removed_segments: segment files deleted after the merge.
        num_classes: classes in the compacted image.
        path: directory of the rewritten image (``None`` for a no-op).
    """

    merged_records: int
    removed_segments: int
    num_classes: int
    path: Path | None


def parse_record(record: dict, path: Path) -> tuple[TruthTable, int]:
    """``(representative, size)`` of one WAL record, its fields checked.

    The class id is left to the caller: replay checks it against the
    representative's canonical form.
    """
    if any(field not in record for field in _RECORD_FIELDS):
        missing = [f for f in _RECORD_FIELDS if f not in record]
        raise WalError(f"{path}: record is missing fields {missing}")
    try:
        representative = TruthTable.from_hex(
            int(record["n"]), record["representative"]
        )
        size = int(record["size"])
    except (ValueError, TypeError) as exc:
        raise WalError(f"{path}: bad record {record!r}: {exc}") from exc
    if size < 1:
        raise WalError(f"{path}: record size must be >= 1, got {size}")
    return representative, size


class LearningLibrary:
    """A :class:`ClassLibrary` plus the write-ahead state that grows it.

    Args:
        library: the in-memory library (already containing any replayed
            classes — use :meth:`open` unless you are testing).
        directory: the library directory; segments live in its ``wal/``
            subdirectory and compaction rewrites its image in place.
        segment_bytes: active-segment size tripping auto-compaction.
        fsync: WAL durability policy (:data:`repro.library.wal.FSYNC_POLICIES`).
    """

    def __init__(
        self,
        library: ClassLibrary,
        directory: str | Path,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: str = "close",
    ) -> None:
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.library = library
        self.directory = Path(directory)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        #: Classes minted by :meth:`learn` over this instance's lifetime.
        self.minted = 0
        #: WAL records not yet absorbed by a compaction (replayed + new).
        self.pending_records = 0
        #: Compactions performed (drain, explicit, or threshold-tripped).
        self.compactions = 0
        self._writer: SegmentWriter | None = None

    # ------------------------------------------------------------------
    # Opening and replay
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: str = "close",
        create: bool = False,
    ) -> "LearningLibrary":
        """Load the image (if any) and replay every WAL segment.

        With ``create``, a directory holding no image yet starts from an
        empty library — the segment-only crash case and the
        grow-from-nothing case.  Without it, a missing image raises
        like :meth:`ClassLibrary.load`.  Torn final records are
        truncated away by the replay, never re-served.

        Opening claims the directory's learner lock (``wal/LOCK``): a
        second live process opening the same library raises
        :class:`~repro.library.wal.LibraryLockedError` instead of racing
        the first on segment creation mid-request.  The lock is released
        by :meth:`close` (or taken over after a crash — see
        :func:`~repro.library.wal.acquire_learner_lock`).
        """
        directory = Path(directory)
        acquire_learner_lock(directory)
        try:
            if (directory / MANIFEST_FILE).exists() or not create:
                library = ClassLibrary.load(directory)
            else:
                library = ClassLibrary()
            learner = cls(
                library, directory, segment_bytes=segment_bytes, fsync=fsync
            )
            learner._replay()
        except BaseException:
            release_learner_lock(directory)
            raise
        return learner

    def _replay(self) -> None:
        """Fold every segment's intact records into the in-memory library.

        Each record's fields are checked, then all representatives are
        canonicalized in one batch and each record's id must name its
        canonical form.
        """
        records = []
        for path in list_segments(self.directory):
            for record in replay_segment(path).records:
                records.append((path, record, *parse_record(record, path)))
        forms = canonical_forms([rep for _, _, rep, _ in records])
        for (path, record, _, size), form in zip(records, forms):
            expected = canonical_class_id(form)
            if str(record["class_id"]) != expected:
                raise WalError(
                    f"{path}: record class id {record['class_id']!r} fails "
                    f"its identity check (its representative's canonical "
                    f"id is {expected!r}) — the segment is corrupted or was "
                    f"produced by an incompatible implementation"
                )
            self.library.add_class(form, size=size, canonical_rep=True)
        self.pending_records += len(records)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def learn(
        self,
        tts: Iterable[TruthTable],
        forms: tuple[Sequence[TruthTable], TransformColumns] | None = None,
        signatures: Sequence[bytes | None] | None = None,
    ) -> list[LibraryMatch]:
        """Mint (or resolve) the classes of queries that missed the library.

        :meth:`ClassLibrary.match_many` passes ``forms``, the canonical
        forms of the leading queries (its misses at ``n <=
        KERNEL_MATCH_VARS``) and the transforms onto them, and each
        miss's MSV key (the flat row's bytes) above; the other queries
        are canonicalized in one
        :func:`~repro.canonical.form.canonical_forms_with_transforms`
        call.  Every witness, the transform's inverse, is checked before
        anything is stored (one gather per arity).  A query whose orbit
        id is stored — minted earlier in this batch included — resolves
        to that class; any other is minted, WAL-logged and indexed in the
        matching chains under its signature, an NPN invariant.
        """
        tts = list(tts)
        known, transforms = forms or ([], TransformColumns.concatenate([]))
        rest, more = canonical_forms_with_transforms(tts[len(known) :])
        forms = [*known, *rest]
        transforms = TransformColumns.concatenate([transforms, more])
        witnesses = checked_witnesses(forms, transforms, tts)
        signatures = signatures or [None] * len(tts)
        out = []
        for form, witness, signature in zip(forms, witnesses, signatures):
            # The id names its representative, so the witness onto
            # ``form`` maps the stored one too.
            entry = self.library.classes.get(canonical_class_id(form))
            if entry is None:
                entry = self.library.add_class(
                    form, size=1, canonical_rep=True, signature=signature
                )
                self._append(
                    {
                        "class_id": entry.class_id,
                        "n": entry.n,
                        "representative": entry.representative.to_hex(),
                        "size": 1,
                        "exact": True,
                    }
                )
                self.minted += 1
                _MINTED.inc()
            out.append(LibraryMatch(entry, witness))
        return out

    def _append(self, record: dict) -> None:
        """Write one record, compacting when the segment threshold trips."""
        if self._writer is None or self._writer.closed:
            self._writer = SegmentWriter(
                self._next_segment_path(), fsync=self.fsync
            )
        size = self._writer.append(record)
        self.pending_records += 1
        if size >= self.segment_bytes:
            self.compact()

    def _next_segment_path(self) -> Path:
        existing = list_segments(self.directory)
        if not existing:
            return segment_path(self.directory, 0)
        last = max(int(p.stem.rsplit("-", 1)[1]) for p in existing)
        return segment_path(self.directory, last + 1)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> CompactionResult:
        """Merge WAL segments into the manifest+npz image, then delete them.

        A no-op (nothing rewritten, nothing deleted) when no records are
        pending and no segment files exist.  Otherwise the in-memory
        library — base image plus every replayed and live-minted record,
        an order-independent fold — is saved, which is why the resulting
        bytes depend only on the record set.
        """
        self.close_segment()
        segments = list_segments(self.directory)
        if not segments and self.pending_records == 0:
            return CompactionResult(0, 0, self.library.num_classes, None)
        with obs.timed(_COMPACTION_SECONDS):
            path = self.library.save(self.directory)
            for segment in segments:
                segment.unlink()
        merged = self.pending_records
        self.pending_records = 0
        self.compactions += 1
        _COMPACTIONS.inc()
        return CompactionResult(
            merged_records=merged,
            removed_segments=len(segments),
            num_classes=self.library.num_classes,
            path=path,
        )

    def close_segment(self) -> None:
        """Seal the active segment (fsync per policy) without compacting."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def close(self) -> None:
        """Seal the active segment and release the learner lock.

        Compaction deliberately does *not* release the lock — threshold
        -tripped compactions happen mid-serve, and dropping the lock
        there would let a second daemon claim a library this one is
        still minting into.  Call ``close`` when this learner is done
        with the directory; idempotent.
        """
        self.close_segment()
        release_learner_lock(self.directory)

    def __enter__(self) -> "LearningLibrary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def segments(self) -> list[Path]:
        """Segment files currently on disk, in replay order."""
        return list_segments(self.directory)

    def stats(self) -> dict:
        """JSON-ready learning counters (for ``/v1/stats`` and the CLI)."""
        return {
            "classes_minted": self.minted,
            "wal_pending_records": self.pending_records,
            "wal_segments": len(self.segments),
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LearningLibrary({str(self.directory)!r}, "
            f"classes={self.library.num_classes}, minted={self.minted}, "
            f"pending={self.pending_records})"
        )
