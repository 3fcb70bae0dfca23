"""Tests for the low-level wire codec: framing, field packers, robustness."""

import pytest

from repro.errors import ReproError, SerializationError
from repro.net.stream import FrameDecoder
from repro.wire.codec import (
    DEFAULT_MAX_FRAME_PAYLOAD,
    FRAME_HEADER_SIZE,
    WIRE_MAGIC,
    WIRE_VERSION,
    Cursor,
    decode_frame,
    encode_frame,
    pack_bool,
    pack_bytes,
    pack_scalar,
    pack_str,
    pack_u8,
    pack_u16,
    pack_u32,
)


class TestFieldPackers:
    def test_int_round_trips(self):
        data = pack_u8(7) + pack_u16(300) + pack_u32(1 << 20) + pack_bool(True)
        cursor = Cursor(data)
        assert cursor.read_u8() == 7
        assert cursor.read_u16() == 300
        assert cursor.read_u32() == 1 << 20
        assert cursor.read_bool() is True
        cursor.expect_end()

    def test_str_and_bytes_round_trip(self):
        data = pack_str("héllo wörld") + pack_bytes(b"\x00\xff" * 10)
        cursor = Cursor(data)
        assert cursor.read_str() == "héllo wörld"
        assert cursor.read_bytes() == b"\x00\xff" * 10
        cursor.expect_end()

    @pytest.mark.parametrize("value", [0, 1, 255, 256, (1 << 200) + 17])
    def test_scalar_round_trip(self, value):
        cursor = Cursor(pack_scalar(value))
        assert cursor.read_scalar() == value
        cursor.expect_end()

    @pytest.mark.parametrize("raw", ["00020005", "0000", "0003000001"])
    def test_non_canonical_scalar_refused(self, raw):
        # pack_scalar(5) is 00 01 05: leading zero bytes or an empty
        # magnitude would make signature and opening bytes malleable.
        with pytest.raises(SerializationError, match="non-canonical scalar"):
            Cursor(bytes.fromhex(raw)).read_scalar()

    def test_range_checks(self):
        with pytest.raises(SerializationError):
            pack_u8(256)
        with pytest.raises(SerializationError):
            pack_u16(-1)
        with pytest.raises(SerializationError):
            pack_scalar(-5)

    def test_truncated_reads_raise_library_errors(self):
        with pytest.raises(SerializationError):
            Cursor(b"").read_u8()
        with pytest.raises(SerializationError):
            Cursor(b"\x00").read_u16()
        with pytest.raises(SerializationError):
            Cursor(pack_str("abc")[:-1]).read_str()
        with pytest.raises(SerializationError):
            Cursor(pack_bytes(b"xy")[:-1]).read_bytes()
        with pytest.raises(SerializationError):
            Cursor(pack_scalar(1 << 64)[:-2]).read_scalar()

    def test_bad_utf8_raises(self):
        cursor = Cursor(pack_u16(2) + b"\xff\xfe")
        with pytest.raises(SerializationError):
            cursor.read_str()

    def test_bad_bool_raises(self):
        with pytest.raises(SerializationError):
            Cursor(b"\x07").read_bool()

    def test_trailing_garbage_rejected(self):
        cursor = Cursor(pack_u8(1) + b"junk")
        cursor.read_u8()
        with pytest.raises(SerializationError):
            cursor.expect_end()

    def test_non_bytes_input_rejected(self):
        with pytest.raises(SerializationError):
            Cursor("not bytes")  # type: ignore[arg-type]


class TestFrames:
    def test_round_trip(self):
        frame = encode_frame(42, b"payload")
        assert frame.startswith(WIRE_MAGIC)
        assert decode_frame(frame) == (42, b"payload")

    def test_reencode_identical(self):
        frame = encode_frame(9, b"\x01" * 100)
        type_id, payload = decode_frame(frame)
        assert encode_frame(type_id, payload) == frame

    def test_stream_splitting(self):
        frames = [encode_frame(i, bytes([i]) * i) for i in range(5)]
        stream = b"".join(frames)
        parsed = FrameDecoder().feed(stream)
        assert parsed == [(i, bytes([i]) * i) for i in range(5)]

    def test_bad_magic(self):
        frame = bytearray(encode_frame(1, b"x"))
        frame[0] ^= 0xFF
        with pytest.raises(SerializationError):
            decode_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_frame(1, b"x"))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(SerializationError):
            decode_frame(bytes(frame))

    def test_truncation_anywhere_raises_library_error(self):
        frame = encode_frame(3, b"some payload bytes")
        for cut in range(len(frame)):
            with pytest.raises(ReproError):
                decode_frame(frame[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(SerializationError):
            decode_frame(encode_frame(1, b"x") + b"!")

    def test_length_lying_header(self):
        # Header claims more payload than present.
        frame = encode_frame(1, b"abcdef")[:-3]
        with pytest.raises(SerializationError):
            decode_frame(frame)


class TestFrameSizeCap:
    @staticmethod
    def _frame_declaring(length):
        """A header declaring ``length`` payload bytes (none attached)."""
        import struct

        return struct.pack(">2sBBI", WIRE_MAGIC, WIRE_VERSION, 1, length)

    def test_hostile_u32_length_rejected_before_allocation(self):
        # A peer declaring ~4 GiB must draw a SerializationError mentioning
        # the cap, not a truncation error after an attempted allocation.
        frame = self._frame_declaring(0xFFFFFFFF)
        with pytest.raises(SerializationError, match="cap"):
            decode_frame(frame)
        with pytest.raises(SerializationError, match="cap"):
            FrameDecoder().feed(frame)

    def test_cap_is_configurable(self):
        frame = encode_frame(1, b"x" * 100)
        assert decode_frame(frame) == (1, b"x" * 100)
        with pytest.raises(SerializationError, match="cap"):
            decode_frame(frame, max_payload=99)
        with pytest.raises(SerializationError, match="cap"):
            FrameDecoder(max_payload=99).feed(frame)
        # The stream splitter applies the cap per frame, not to the
        # concatenation.
        stream = encode_frame(1, b"a" * 60) + encode_frame(2, b"b" * 60)
        assert len(FrameDecoder(max_payload=64).feed(stream)) == 2

    def test_frame_at_cap_round_trips(self):
        payload = b"z" * 128
        frame = encode_frame(7, payload, max_payload=128)
        assert decode_frame(frame, max_payload=128) == (7, payload)

    def test_encode_side_enforces_cap(self):
        with pytest.raises(SerializationError, match="cap"):
            encode_frame(1, b"x" * 11, max_payload=10)

    def test_default_cap_sane(self):
        assert DEFAULT_MAX_FRAME_PAYLOAD >= 1 << 20  # room for big packages
        assert DEFAULT_MAX_FRAME_PAYLOAD < 1 << 32  # below the u32 ceiling
        assert FRAME_HEADER_SIZE == 8
