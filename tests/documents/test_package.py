"""Serialization tests for broadcast packages."""

import pickle
from dataclasses import replace

import pytest

from repro.documents.package import (
    BroadcastPackage,
    ConfigHeader,
    EncryptedSubdocument,
)
from repro.errors import SerializationError
from repro.gkm.acv import FAST_FIELD, AcvBgkm


def sample_package(rng):
    gkm = AcvBgkm(FAST_FIELD)
    _, acv = gkm.generate([(b"css",)], rng=rng)
    headers = (
        ConfigHeader(
            config_id="pc1",
            policies=(("role = doc",), ("role = nur", "level >= 59")),
            acv=acv,
        ),
        ConfigHeader(config_id="pc0", policies=(), acv=None),
    )
    subs = (
        EncryptedSubdocument(name="a", config_id="pc1", ciphertext=b"\x01" * 40),
        EncryptedSubdocument(name="b", config_id="pc0", ciphertext=b"\x02" * 10),
    )
    return BroadcastPackage(document="doc.xml", headers=headers, subdocuments=subs)


class TestRoundtrip:
    def test_full_roundtrip(self, rng):
        pkg = sample_package(rng)
        parsed = BroadcastPackage.from_bytes(pkg.to_bytes())
        assert parsed == pkg

    def test_empty_acv_header(self, rng):
        pkg = sample_package(rng)
        parsed = BroadcastPackage.from_bytes(pkg.to_bytes())
        assert parsed.header_for("pc0").acv is None
        assert parsed.header_for("pc1").acv is not None

    def test_parsed_keying_header_decodes_on_first_use(self, rng):
        pkg = sample_package(rng)
        raw = pkg.to_bytes()
        parsed = BroadcastPackage.from_bytes(raw)
        header = parsed.header_for("pc1")
        assert "acv" not in vars(header)
        # Byte for byte and picklable while still undecoded ...
        assert parsed.to_bytes() == raw
        assert pickle.loads(pickle.dumps(header)) == pkg.headers[0]
        assert replace(header, policies=()).acv == pkg.headers[0].acv
        assert "acv" in vars(header)  # replace() read it
        # ... and equal on content once decoded.
        assert header == pkg.headers[0]
        assert replace(header, acv=None).acv is None

    def test_unicode_names(self, rng):
        pkg = BroadcastPackage(
            document="docué.xml",
            headers=(ConfigHeader("pc0", (), None),),
            subdocuments=(
                EncryptedSubdocument("résumé", "pc0", b"x"),
            ),
        )
        assert BroadcastPackage.from_bytes(pkg.to_bytes()) == pkg

    def test_header_lookup_missing(self, rng):
        pkg = sample_package(rng)
        with pytest.raises(SerializationError):
            pkg.header_for("pc9")

    def test_byte_size_consistency(self, rng):
        pkg = sample_package(rng)
        assert pkg.byte_size() == len(pkg.to_bytes())
        assert 0 < pkg.header_overhead() < pkg.byte_size()


class TestMalformed:
    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            BroadcastPackage.from_bytes(b"XXXX" + b"\x00" * 10)

    def test_truncated(self, rng):
        raw = sample_package(rng).to_bytes()
        for cut in (5, len(raw) // 2, len(raw) - 3):
            with pytest.raises(SerializationError):
                BroadcastPackage.from_bytes(raw[:cut])

    def test_empty_input(self):
        with pytest.raises(SerializationError):
            BroadcastPackage.from_bytes(b"")

    def test_repeated_config_id(self, rng):
        # header_for would answer with the first header and a receiver
        # keyed by id would keep the last: the parse refuses the repeat.
        pkg = sample_package(rng)
        first = pkg.headers[0]
        repeated = replace(pkg, headers=(first, replace(first, acv=None)))
        with pytest.raises(SerializationError, match="configuration id"):
            BroadcastPackage.from_bytes(repeated.to_bytes())

    def test_repeated_subdocument_name(self, rng):
        pkg = sample_package(rng)
        a, b = pkg.subdocuments
        repeated = replace(pkg, subdocuments=(a, replace(b, name=a.name)))
        with pytest.raises(SerializationError, match="subdocument name"):
            BroadcastPackage.from_bytes(repeated.to_bytes())
