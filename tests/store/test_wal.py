"""WAL robustness: torn tails tolerated, everything else loudly typed."""

import os
import struct
import zlib

import pytest

from repro.errors import LogCorruptionError, ReproError, SerializationError
from repro.store.wal import (
    CRC_SIZE,
    WalRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
    scan_records,
)
from repro.wire.codec import FRAME_HEADER_SIZE


RECORDS = [(16, b"alpha"), (17, b""), (40, b"x" * 1000), (255, b"genesis")]


def _log_bytes(records=RECORDS):
    return b"".join(encode_record(t, p) for t, p in records)


class TestRoundTrip:
    def test_scan_inverts_encode(self):
        records, clean_end = scan_records(_log_bytes())
        assert [(r.type_id, r.payload) for r in records] == RECORDS
        assert clean_end == len(_log_bytes())

    def test_decode_single_record(self):
        record = decode_record(encode_record(7, b"payload"))
        assert record == WalRecord(type_id=7, payload=b"payload")

    def test_decode_rejects_trailing_bytes(self):
        with pytest.raises(LogCorruptionError):
            decode_record(encode_record(7, b"payload") + b"\x00")

    def test_replay_missing_file_is_empty(self, tmp_path):
        with WriteAheadLog(str(tmp_path / "absent.log"), sync=False) as wal:
            assert wal.recovered == []


class TestTornTail:
    """Every strict prefix of a record is a tolerable torn tail."""

    @pytest.mark.parametrize("cut", [1, CRC_SIZE, FRAME_HEADER_SIZE - 1,
                                     FRAME_HEADER_SIZE,
                                     len(encode_record(*RECORDS[-1])) - 1])
    def test_truncated_final_record_is_dropped(self, cut):
        data = _log_bytes()
        intact = _log_bytes(RECORDS[:-1])
        records, clean_end = scan_records(data[: len(data) - cut])
        assert clean_end == len(intact)
        assert [(r.type_id, r.payload) for r in records] == RECORDS[:-1]

    def test_open_truncates_torn_tail_and_appends_cleanly(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(1, b"one")
            wal.append(2, b"two")
        with open(path, "ab") as handle:
            handle.write(encode_record(3, b"three")[:-3])  # torn write
        with WriteAheadLog(path, sync=False) as wal:
            assert [(r.type_id, r.payload) for r in wal.recovered] == [
                (1, b"one"), (2, b"two")
            ]
            wal.append(4, b"four")
        with open(path, "rb") as handle:
            records, _ = scan_records(handle.read())
        assert [(r.type_id, r.payload) for r in records] == [
            (1, b"one"), (2, b"two"), (4, b"four")
        ]

    def test_every_prefix_recovers_or_raises_typed(self, tmp_path):
        """No prefix length may escape the ReproError hierarchy."""
        data = _log_bytes()
        for cut in range(len(data)):
            try:
                scan_records(data[:cut])
            except ReproError:
                pass  # typed is fine; struct.error/IndexError are not


class TestCorruption:
    """Present-but-wrong bytes are corruption, never silently skipped."""

    def test_bit_flipped_crc_raises(self):
        data = bytearray(_log_bytes())
        data[-1] ^= 0x01  # last CRC byte of the final record
        with pytest.raises(LogCorruptionError, match="CRC mismatch"):
            scan_records(bytes(data))

    def test_bit_flipped_payload_raises(self):
        record = bytearray(encode_record(5, b"sensitive"))
        record[FRAME_HEADER_SIZE] ^= 0x80
        with pytest.raises(LogCorruptionError, match="CRC mismatch"):
            scan_records(bytes(record))

    def test_mid_log_corruption_does_not_resurrect_later_records(self):
        first = bytearray(encode_record(1, b"a"))
        first[FRAME_HEADER_SIZE] ^= 0xFF
        with pytest.raises(LogCorruptionError):
            scan_records(bytes(first) + encode_record(2, b"b"))

    def test_oversized_declared_length_raises_before_allocation(self):
        # A header declaring ~4 GiB: rejected from the 12 real bytes alone.
        header = struct.pack(">2sBBI", b"RW", 1, 9, 0xFFFFFFF0)
        bogus = header + struct.pack(">I", zlib.crc32(header))
        with pytest.raises(LogCorruptionError, match="cap"):
            scan_records(bogus)

    def test_bad_magic_raises(self):
        data = bytearray(encode_record(1, b"a"))
        data[0] = 0x58
        with pytest.raises(LogCorruptionError, match="invalid record header"):
            scan_records(bytes(data))

    def test_foreign_wire_version_raises(self):
        data = bytearray(encode_record(1, b"a"))
        data[2] = 99
        with pytest.raises(LogCorruptionError, match="invalid record header"):
            scan_records(bytes(data))

    def test_small_record_cap_applies_to_disk_reads(self):
        data = encode_record(1, b"y" * 128)
        with pytest.raises(LogCorruptionError, match="cap"):
            scan_records(data, max_payload=64)

    def test_append_rejects_oversized_payload(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), max_payload=16,
                            sync=False)
        with pytest.raises(SerializationError):
            wal.append(1, b"z" * 17)
        wal.close()
        with pytest.raises(LogCorruptionError):
            wal.append(1, b"late")

    def test_corrupt_log_refuses_to_open_for_append(self, tmp_path):
        path = str(tmp_path / "wal.log")
        data = bytearray(encode_record(1, b"a") + encode_record(2, b"b"))
        data[FRAME_HEADER_SIZE] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(LogCorruptionError):
            WriteAheadLog(path, sync=False)
        assert os.path.getsize(path) == len(data)  # refused, not "repaired"
