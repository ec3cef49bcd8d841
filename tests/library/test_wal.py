"""Property tests for the write-ahead segment format.

Three contracts, in the order crash recovery depends on them:

* **Round-trip** — any JSON-object record sequence written through
  :class:`SegmentWriter` replays identically (hypothesis-generated
  records, so framing bugs shrink to a minimal payload);
* **Torn-tail recovery** — truncating or corrupting the file at *every*
  byte offset of the final record loses exactly that record: replay
  returns the intact prefix, flags the tear, and reports the safe
  truncation point;
* **Compaction determinism** — any arrival order and any segmentation
  of a fixed record set compacts to byte-identical ``manifest.json``
  and ``classes.npz`` images (hypothesis draws the permutation and the
  segment split points).
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.truth_table import TruthTable
from repro.library import (
    DEFAULT_SEGMENT_BYTES,
    ClassLibrary,
    FSYNC_POLICIES,
    LearningLibrary,
    SegmentWriter,
    WalError,
    list_segments,
    replay_segment,
)
from repro.library.store import MANIFEST_FILE, TABLES_FILE
from repro.library.wal import (
    MAX_RECORD_BYTES,
    WAL_MAGIC,
    decode_records,
    encode_record,
    segment_path,
)

# JSON-object records: whatever shape future schema versions take, the
# framing layer must round-trip it byte-exactly.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 53), max_value=1 << 53),
    st.text(max_size=20),
)
_records = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(_json_scalars, st.lists(_json_scalars, max_size=4)),
    max_size=6,
)


def _write_segment(path, records, fsync="close") -> None:
    with SegmentWriter(path, fsync=fsync) as writer:
        for record in records:
            writer.append(record)


class TestRoundTrip:
    @given(st.lists(_records, max_size=12))
    def test_any_record_sequence_replays_identically(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = segment_path(tmp, 0)
            _write_segment(path, records)
            replay = replay_segment(path)
        assert replay.records == records
        assert replay.clean
        assert replay.valid_bytes == len(WAL_MAGIC) + sum(
            len(encode_record(r)) for r in records
        )

    @given(st.lists(_records, max_size=8))
    def test_decode_inverts_encode(self, records):
        data = b"".join(encode_record(r) for r in records)
        decoded, clean, valid = decode_records(data)
        assert decoded == records
        assert clean
        assert valid == len(data)

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_every_fsync_policy_round_trips(self, fsync, tmp_path):
        path = segment_path(tmp_path, 3)
        records = [{"k": i} for i in range(5)]
        _write_segment(path, records, fsync=fsync)
        assert replay_segment(path).records == records

    def test_empty_segment_is_clean(self, tmp_path):
        path = segment_path(tmp_path, 0)
        SegmentWriter(path).close()
        replay = replay_segment(path)
        assert replay.records == []
        assert replay.clean
        assert replay.valid_bytes == len(WAL_MAGIC)


class TestTornTail:
    """Crash artifacts at every byte offset of the final record."""

    @pytest.fixture()
    def segment(self, tmp_path):
        """A sealed 4-record segment plus its last-record boundary."""
        path = segment_path(tmp_path, 0)
        records = [{"class_id": f"n5-{i:04x}", "size": i + 1} for i in range(4)]
        _write_segment(path, records)
        data = path.read_bytes()
        boundary = len(WAL_MAGIC) + sum(
            len(encode_record(r)) for r in records[:3]
        )
        return path, records, data, boundary

    def test_truncation_at_every_offset_keeps_prefix(self, segment):
        path, records, data, boundary = segment
        for cut in range(boundary, len(data)):
            path.write_bytes(data[:cut])
            replay = replay_segment(path)
            assert replay.records == records[:3], f"cut at byte {cut}"
            # A cut exactly on the boundary is a whole-record loss, not
            # a tear: the file is short but self-consistent.
            assert replay.clean == (cut == boundary)
            assert replay.valid_bytes == boundary

    def test_bit_flip_at_every_offset_drops_only_last_record(self, segment):
        path, records, data, boundary = segment
        for position in range(boundary, len(data)):
            corrupted = bytearray(data)
            corrupted[position] ^= 0x40
            path.write_bytes(bytes(corrupted))
            replay = replay_segment(path)
            assert replay.records == records[:3], f"flip at byte {position}"
            assert not replay.clean
            assert replay.valid_bytes == boundary

    def test_untouched_file_is_clean(self, segment):
        path, records, data, _ = segment
        replay = replay_segment(path)
        assert replay.records == records
        assert replay.clean
        assert replay.valid_bytes == len(data)

    def test_truncated_magic_raises(self, tmp_path):
        path = tmp_path / "torn-magic.wal"
        path.write_bytes(WAL_MAGIC[:7])
        with pytest.raises(WalError):
            replay_segment(path)

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "foreign.wal"
        path.write_bytes(b"PK\x03\x04 definitely not a wal segment")
        with pytest.raises(WalError):
            replay_segment(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(WalError):
            replay_segment(tmp_path / "absent.wal")

    def test_oversized_declared_length_is_a_tear(self):
        header = encode_record({"a": 1})[:8]
        bogus = bytearray(header)
        bogus[0:4] = (MAX_RECORD_BYTES + 1).to_bytes(4, "little")
        records, clean, valid = decode_records(bytes(bogus) + b"x" * 32)
        assert records == [] and not clean and valid == 0

    def test_non_object_payload_is_a_tear(self):
        import struct
        import zlib

        payload = json.dumps([1, 2, 3]).encode()
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        good = encode_record({"ok": True})
        records, clean, valid = decode_records(good + frame)
        assert records == [{"ok": True}]
        assert not clean
        assert valid == len(good)


class TestWriter:
    def test_exclusive_create_refuses_existing_segment(self, tmp_path):
        path = segment_path(tmp_path, 0)
        SegmentWriter(path).close()
        with pytest.raises(FileExistsError):
            SegmentWriter(path)

    def test_append_after_close_raises(self, tmp_path):
        writer = SegmentWriter(segment_path(tmp_path, 0))
        writer.close()
        with pytest.raises(WalError):
            writer.append({"a": 1})

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentWriter(segment_path(tmp_path, 0), fsync="sometimes")

    def test_oversized_record_rejected_before_write(self, tmp_path):
        writer = SegmentWriter(segment_path(tmp_path, 0))
        try:
            with pytest.raises(WalError):
                writer.append({"blob": "x" * (MAX_RECORD_BYTES + 1)})
        finally:
            writer.close()
        # The refused record must not have reached the file.
        assert replay_segment(writer.path).records == []


# ----------------------------------------------------------------------
# Compaction determinism
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def minted_records():
    """A fixed set of genuine WAL records, minted once via learn()."""
    rng = random.Random(77)
    with tempfile.TemporaryDirectory() as tmp:
        learner = LearningLibrary.open(tmp, create=True)
        while learner.minted < 8:
            learner.learn([TruthTable.random(4, rng)])
        learner.close_segment()
        records = [
            record
            for path in list_segments(tmp)
            for record in replay_segment(path).records
        ]
    assert len(records) == 8
    return records


def _compact_image(records, segmentation) -> dict[str, bytes]:
    """Write ``records`` split at ``segmentation``, replay, compact."""
    with tempfile.TemporaryDirectory() as tmp:
        bounds = [0, *sorted(segmentation), len(records)]
        index = 0
        for start, stop in zip(bounds, bounds[1:]):
            if start == stop:
                continue
            _write_segment(segment_path(tmp, index), records[start:stop])
            index += 1
        learner = LearningLibrary.open(tmp, create=True)
        assert learner.pending_records == len(records)
        result = learner.compact()
        assert result.merged_records == len(records)
        assert learner.segments == []
        return {
            name: (Path(tmp) / name).read_bytes()
            for name in (MANIFEST_FILE, TABLES_FILE)
        }


class TestCompactionDeterminism:
    @given(data=st.data())
    def test_any_order_and_segmentation_compacts_identically(
        self, data, minted_records
    ):
        reference = _compact_image(minted_records, segmentation=[])
        order = data.draw(st.permutations(minted_records))
        splits = data.draw(
            st.lists(
                st.integers(0, len(minted_records)), max_size=3, unique=True
            )
        )
        assert _compact_image(order, splits) == reference

    def test_replayed_then_compacted_equals_direct_save(self, minted_records):
        image = _compact_image(minted_records, segmentation=[2, 5])
        direct = ClassLibrary()
        for record in minted_records:
            direct.add_class(
                TruthTable.from_hex(record["n"], record["representative"]),
                size=record["size"],
            )
        assert direct.num_classes == len(minted_records)
        with tempfile.TemporaryDirectory() as tmp:
            direct.save(tmp)
            assert image == {
                name: (Path(tmp) / name).read_bytes()
                for name in (MANIFEST_FILE, TABLES_FILE)
            }
