"""Append-only write-ahead record log with CRC-checked, torn-tail-tolerant
records.

A WAL record is exactly a wire frame (:mod:`repro.wire.codec`:
``MAGIC || version || type || u32 length || payload``) followed by a
``u32`` CRC-32 over the frame bytes.  Reusing the wire framing means the
same max-frame cap and canonical-encoding hardening that protects the
sockets also protects the disk: an attacker (or a bad disk) cannot make
recovery allocate unbounded memory or crash with ``struct.error``.

Failure policy, in the order recovery can meet it:

* a record whose bytes are *all present* but fail a check (bad magic or
  version, payload length over the cap, CRC mismatch) raises
  :class:`~repro.errors.LogCorruptionError` -- the log is damaged and
  silently dropping interior records would resurrect revoked state;
* a record that simply *stops early* at end-of-file (torn tail) is the
  expected shape of a crash mid-``write``: replay returns everything
  before it and reports the clean end so the writer can truncate.

:class:`WriteAheadLog` truncates any torn tail when it opens a log for
appending, so one crashed append can never cascade into corruption of the
records written after recovery.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import LogCorruptionError
from repro.obs.metrics import get_registry
from repro.obs.trace import stage
from repro.wire.codec import (
    DEFAULT_MAX_FRAME_PAYLOAD,
    FRAME_HEADER_SIZE,
    SerializationError,
    check_frame_length,
    encode_frame,
    parse_frame_header,
)

__all__ = [
    "CRC_SIZE",
    "WalRecord",
    "WriteAheadLog",
    "encode_record",
    "decode_record",
    "scan_records",
]

#: Width of the CRC-32 suffix on every record.
CRC_SIZE = 4


@dataclass(frozen=True)
class WalRecord:
    """One recovered log record: the frame type id and its payload."""

    type_id: int
    payload: bytes


def encode_record(
    type_id: int, payload: bytes, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> bytes:
    """``frame || crc32(frame)`` -- the on-disk record encoding."""
    frame = encode_frame(type_id, payload, max_payload)
    return frame + struct.pack(">I", zlib.crc32(frame))


def decode_record(
    data: bytes, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> WalRecord:
    """Parse exactly one record; trailing bytes are corruption."""
    records, clean_end = scan_records(data, max_payload)
    if len(records) != 1 or clean_end != len(data):
        raise LogCorruptionError(
            "expected exactly one complete record in %d bytes" % len(data)
        )
    return records[0]


def scan_records(
    data: bytes, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> Tuple[List[WalRecord], int]:
    """Scan a log image; returns ``(records, clean_end)``.

    ``clean_end`` is the offset just past the last complete, CRC-valid
    record; bytes beyond it are a torn tail (a strict prefix of one
    record).  Anything present-but-invalid raises
    :class:`LogCorruptionError`.
    """
    records: List[WalRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < FRAME_HEADER_SIZE:
            break  # torn tail: not even a full header
        header = data[offset : offset + FRAME_HEADER_SIZE]
        try:
            type_id, length = parse_frame_header(header)
            check_frame_length(length, max_payload)
        except SerializationError as exc:
            raise LogCorruptionError(
                "invalid record header at offset %d: %s" % (offset, exc)
            ) from exc
        frame_end = offset + FRAME_HEADER_SIZE + length
        if frame_end + CRC_SIZE > total:
            break  # torn tail: header promises more bytes than exist
        frame = data[offset:frame_end]
        (stored_crc,) = struct.unpack_from(">I", data, frame_end)
        if stored_crc != zlib.crc32(frame):
            raise LogCorruptionError(
                "CRC mismatch on the record at offset %d" % offset
            )
        records.append(
            WalRecord(type_id=type_id, payload=frame[FRAME_HEADER_SIZE:])
        )
        offset = frame_end + CRC_SIZE
    return records, offset


class WriteAheadLog:
    """An append-only record log open for writing.

    Opening an existing log replays it (the recovered records are kept on
    :attr:`recovered`) and truncates any torn tail, so the next append
    lands on a clean record boundary.  Each append writes one record in a
    single ``write`` call and, with ``sync=True`` (the default), fsyncs
    before returning -- the write-*ahead* contract: once ``append``
    returns, the transition survives a crash.
    """

    def __init__(
        self,
        path: str,
        max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD,
        sync: bool = True,
    ):
        self.path = path
        self.max_payload = max_payload
        self.sync = sync
        self.recovered: List[WalRecord] = []
        clean_end = 0
        size = 0
        if os.path.exists(path):
            with open(path, "rb") as handle:
                data = handle.read()
            size = len(data)
            self.recovered, clean_end = scan_records(data, max_payload)
        if clean_end != size:
            with open(path, "r+b") as handle:
                handle.truncate(clean_end)
        self._handle = open(path, "ab")
        self.record_count = len(self.recovered)

    def append(self, type_id: int, payload: bytes) -> None:
        """Durably append one record."""
        if self._handle.closed:
            raise LogCorruptionError("append to a closed log %r" % self.path)
        registry = get_registry()
        with stage("wal.append", size=len(payload)):
            with registry.timer("wal.append_seconds"):
                self._handle.write(
                    encode_record(type_id, payload, self.max_payload)
                )
                self._handle.flush()
                if self.sync:
                    with stage("wal.fsync"):
                        with registry.timer("wal.fsync_seconds"):
                            os.fsync(self._handle.fileno())
        registry.inc("wal.appends")
        self.record_count += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            if self.sync:
                os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
