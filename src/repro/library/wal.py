"""Write-ahead segments: crash-safe persistence for learned classes.

The online service mints new classes while serving traffic (see
:mod:`repro.library.online`).  Rewriting the whole ``manifest.json`` +
``classes.npz`` image per minted class would turn every miss into a
full-library write, so minted classes first land in an **append-only
write-ahead segment** under ``<library>/wal/``:

* a segment starts with a 16-byte magic string (format + version), so a
  foreign or truncated-to-nothing file is rejected loudly;
* each record is ``[u32 payload length][u32 CRC32][payload]``
  (little-endian header, canonical-JSON payload), so replay needs no
  framing heuristics and detects corruption per record;
* appends go through a configurable fsync policy (:data:`FSYNC_POLICIES`):
  ``always`` fsyncs every record (maximum durability), ``close`` fsyncs
  once when the segment is sealed, ``never`` leaves flushing to the OS.

Replay (:func:`replay_segment`) tolerates a **torn final record** — the
expected artifact of a crash mid-append: a truncated header, a payload
shorter than its declared length, a CRC mismatch or an undecodable
payload all end the replay at the last intact record instead of raising.
Everything *before* the tear is returned, which is exactly the
at-least-once contract compaction needs.  A bad magic header, by
contrast, always raises: that is not a torn write but a wrong file.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.library.store import LibraryFormatError

__all__ = [
    "WAL_MAGIC",
    "WAL_DIR",
    "LOCK_FILE",
    "FSYNC_POLICIES",
    "MAX_RECORD_BYTES",
    "WalError",
    "LibraryLockedError",
    "SegmentWriter",
    "SegmentReplay",
    "encode_record",
    "decode_records",
    "replay_segment",
    "list_segments",
    "segment_path",
    "lock_path",
    "acquire_learner_lock",
    "release_learner_lock",
]

#: First bytes of every segment file: format name + format version.
WAL_MAGIC = b"repro-npn-wal/1\n"

#: Subdirectory of a library holding its write-ahead segments.
WAL_DIR = "wal"

#: Lock file (under :data:`WAL_DIR`) naming the active learner's pid.
LOCK_FILE = "LOCK"

#: ``(payload length, CRC32 of payload)``, little-endian.
_HEADER = struct.Struct("<II")

#: Hard cap on one record's payload: a declared length beyond this is
#: treated as corruption, not as an instruction to allocate gigabytes.
MAX_RECORD_BYTES = 1 << 20

#: When appended records reach the disk (see module docstring).
FSYNC_POLICIES = ("always", "close", "never")

_OBS = obs.registry()
_APPENDS = _OBS.counter(
    "repro_wal_appends_total", "Records appended to write-ahead segments."
)
_APPEND_BYTES = _OBS.counter(
    "repro_wal_append_bytes_total",
    "Bytes appended to write-ahead segments (headers included).",
)
_FSYNCS = _OBS.counter(
    "repro_wal_fsyncs_total",
    "fsync calls issued by segment writers, by trigger.",
    labels=("when",),
)
_APPEND_SECONDS = _OBS.histogram(
    "repro_wal_append_seconds",
    "Wall-clock time of one durable append (write + flush + policy fsync).",
)
_REPLAYED_RECORDS = _OBS.counter(
    "repro_wal_replayed_records_total",
    "Intact records recovered by segment replay.",
)
_REPLAYED_SEGMENTS = _OBS.counter(
    "repro_wal_replayed_segments_total",
    "Segments replayed, split by whether the tail was intact.",
    labels=("tail",),
)


class WalError(LibraryFormatError):
    """A write-ahead segment is malformed beyond torn-tail tolerance."""


class LibraryLockedError(WalError):
    """Another live process is already learning on this library."""


def lock_path(directory: str | Path) -> Path:
    """The learner lock file of a library directory."""
    return Path(directory) / WAL_DIR / LOCK_FILE


def acquire_learner_lock(directory: str | Path) -> Path:
    """Claim exclusive learner rights over a library directory.

    Two learners appending to one ``wal/`` race on segment creation —
    the second one's exclusive-create blows up mid-request with a raw
    ``FileExistsError``.  This lock moves the failure to open time with
    a clear error instead: ``wal/LOCK`` records the holder's pid, and a
    second :class:`~repro.library.online.LearningLibrary` open fails
    fast with :class:`LibraryLockedError` while the holder lives.

    A lock naming the *current* pid (a reopened learner in the same
    process) or a dead pid (holder crashed without releasing — the lock
    file has no other removal path after a SIGKILL) is taken over.
    Unparseable lock files count as stale.
    """
    path = lock_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    my_pid = os.getpid()
    while True:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            holder = _read_lock_pid(path)
            if holder is not None and holder != my_pid and _pid_alive(holder):
                raise LibraryLockedError(
                    f"{Path(directory)}: library already has an active "
                    f"learner (pid {holder}); stop that process first, or "
                    f"point this one at its own library directory"
                ) from None
            try:  # stale or our own: take it over and retry the create
                path.unlink()
            except FileNotFoundError:
                pass
            continue
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{my_pid}\n")
        return path


def release_learner_lock(directory: str | Path) -> None:
    """Drop the learner lock if this process holds it (idempotent).

    A lock held by another pid is left alone — releasing is only valid
    for the acquirer, and a double release must not unlock a library a
    different daemon has since claimed.
    """
    path = lock_path(directory)
    if _read_lock_pid(path) == os.getpid():
        try:
            path.unlink()
        except FileNotFoundError:
            pass


def _read_lock_pid(path: Path) -> int | None:
    try:
        return int(path.read_text().strip())
    except (OSError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True


def segment_path(directory: str | Path, index: int) -> Path:
    """Canonical path of segment ``index`` under a library directory."""
    return Path(directory) / WAL_DIR / f"segment-{index:06d}.wal"


def list_segments(directory: str | Path) -> list[Path]:
    """All segment files under ``<directory>/wal/``, in replay order."""
    wal_dir = Path(directory) / WAL_DIR
    if not wal_dir.is_dir():
        return []
    return sorted(wal_dir.glob("segment-*.wal"))


def encode_record(record: dict) -> bytes:
    """One record as ``header + canonical JSON`` bytes.

    Canonical JSON (sorted keys, no whitespace) makes the encoding a
    pure function of the record — the byte-determinism of compaction
    starts here.
    """
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode()
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(
            f"record payload is {len(payload)} bytes "
            f"(limit {MAX_RECORD_BYTES})"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_records(data: bytes) -> tuple[list[dict], bool, int]:
    """Parse a record stream: ``(records, clean, valid_bytes)``.

    ``clean`` is False when the stream ends in a torn record; in that
    case ``valid_bytes`` is the offset of the last intact record
    boundary (the safe truncation point).  ``data`` excludes the magic.
    """
    records: list[dict] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            return records, False, offset
        length, checksum = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            return records, False, offset
        start = offset + _HEADER.size
        if total - start < length:
            return records, False, offset
        payload = data[start : start + length]
        if zlib.crc32(payload) != checksum:
            return records, False, offset
        try:
            record = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return records, False, offset
        if not isinstance(record, dict):
            return records, False, offset
        records.append(record)
        offset = start + length
    return records, True, offset


@dataclass(frozen=True)
class SegmentReplay:
    """Outcome of replaying one segment file.

    Attributes:
        path: the segment file.
        records: every intact record, in append order.
        clean: False when the file ends in a torn record (crash artifact).
        valid_bytes: file offset of the last intact record boundary.
    """

    path: Path
    records: list[dict]
    clean: bool
    valid_bytes: int


def replay_segment(path: str | Path) -> SegmentReplay:
    """Read one segment, tolerating a torn final record.

    Raises :class:`WalError` when the file is missing or does not start
    with :data:`WAL_MAGIC` — those are wrong files, not crash artifacts.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise WalError(f"{path}: cannot read segment: {exc}") from exc
    if len(data) < len(WAL_MAGIC) or not data.startswith(WAL_MAGIC):
        raise WalError(
            f"{path}: not a {WAL_MAGIC[:-1].decode()} segment "
            f"(bad or truncated magic header)"
        )
    records, clean, valid = decode_records(data[len(WAL_MAGIC):])
    _REPLAYED_RECORDS.inc(len(records))
    _REPLAYED_SEGMENTS.inc(tail="clean" if clean else "torn")
    return SegmentReplay(
        path=path,
        records=records,
        clean=clean,
        valid_bytes=len(WAL_MAGIC) + valid,
    )


class SegmentWriter:
    """Appends length-prefixed, checksummed records to one new segment.

    Args:
        path: segment file to create.  Creation is exclusive — an
            existing file raises, because reusing a possibly-torn
            segment would bury the tear mid-file where replay cannot
            distinguish it from real corruption.  Crash recovery starts
            a *new* segment instead.
        fsync: one of :data:`FSYNC_POLICIES`.
    """

    def __init__(self, path: str | Path, fsync: str = "close") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {', '.join(FSYNC_POLICIES)}, "
                f"got {fsync!r}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self.records_written = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "xb")
        self._handle.write(WAL_MAGIC)
        self._handle.flush()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def append(self, record: dict) -> int:
        """Durably append one record; returns the segment size after it."""
        if self.closed:
            raise WalError(f"{self.path}: segment writer is closed")
        encoded = encode_record(record)
        with obs.timed(_APPEND_SECONDS):
            self._handle.write(encoded)
            self._handle.flush()
            if self.fsync == "always":
                os.fsync(self._handle.fileno())
                _FSYNCS.inc(when="append")
        self.records_written += 1
        _APPENDS.inc()
        _APPEND_BYTES.inc(len(encoded))
        return self._handle.tell()

    def close(self) -> None:
        """Seal the segment (fsyncs under the ``close`` policy)."""
        if self.closed:
            return
        self._handle.flush()
        if self.fsync in ("always", "close"):
            os.fsync(self._handle.fileno())
            _FSYNCS.inc(when="close")
        self._handle.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentWriter({str(self.path)!r}, fsync={self.fsync!r}, "
            f"records={self.records_written})"
        )
