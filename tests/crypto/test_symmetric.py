"""Tests for the authenticated symmetric envelopes."""

import hashlib
import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.symmetric import (
    AesCtrHmacCipher,
    HashStreamCipher,
    default_cipher,
)
from repro.errors import DecryptionError, InvalidParameterError

CIPHERS = [AesCtrHmacCipher(), HashStreamCipher()]
IDS = [c.name for c in CIPHERS]


@pytest.mark.parametrize("cipher", CIPHERS, ids=IDS)
class TestRoundtrip:
    @given(key=st.binary(min_size=1, max_size=64), data=st.binary(max_size=300))
    def test_roundtrip(self, cipher, key, data):
        assert cipher.decrypt(key, cipher.encrypt(key, data)) == data

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(b"k", cipher.encrypt(b"k", b"")) == b""

    def test_nondeterministic(self, cipher):
        """Semantic security requires fresh randomness per encryption."""
        ct1 = cipher.encrypt(b"key", b"message")
        ct2 = cipher.encrypt(b"key", b"message")
        assert ct1 != ct2

    def test_wrong_key_rejected(self, cipher):
        ct = cipher.encrypt(b"right", b"message")
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"wrong", ct)

    def test_tampered_body_rejected(self, cipher):
        ct = bytearray(cipher.encrypt(b"key", b"message"))
        ct[20] ^= 1
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"key", bytes(ct))

    def test_tampered_tag_rejected(self, cipher):
        ct = bytearray(cipher.encrypt(b"key", b"message"))
        ct[-1] ^= 1
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"key", bytes(ct))

    def test_truncated_rejected(self, cipher):
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"key", b"short")

    def test_overhead_accounting(self, cipher):
        ct = cipher.encrypt(b"key", b"x" * 100)
        assert len(ct) == 100 + cipher.overhead()


class TestSpecifics:
    def test_default_cipher_is_aes(self):
        assert default_cipher().name == "aes-ctr-hmac"

    def test_aes_key_sizes(self):
        for size in (16, 24, 32):
            c = AesCtrHmacCipher(aes_key_size=size)
            assert c.decrypt(b"k", c.encrypt(b"k", b"data")) == b"data"

    def test_aes_bad_key_size(self):
        with pytest.raises(InvalidParameterError):
            AesCtrHmacCipher(aes_key_size=20)

    def test_ciphertexts_not_interchangeable(self):
        """An AES-CTR ciphertext must not decrypt under the hash-stream
        cipher (domain-separated subkeys + different construction)."""
        ct = AesCtrHmacCipher().encrypt(b"key", b"data")
        with pytest.raises(DecryptionError):
            HashStreamCipher().decrypt(b"key", ct)

    def test_long_payload(self):
        cipher = HashStreamCipher()
        data = bytes(range(256)) * 64  # 16 KiB
        assert cipher.decrypt(b"k", cipher.encrypt(b"k", data)) == data


class TestGoldenCiphertexts:
    """``AesCtrHmacCipher`` output for a fixed key and nonce, computed on the
    commit *before* the bulk kernel and the key-state table landed (per-block
    CTR, per-call HKDF) and pinned as SHA-256: neither may move a byte."""

    KEY = bytes(range(32, 64))
    NONCE = bytes(range(0xA0, 0xB0))
    GOLDEN = {
        (16, 0): "71eecf8b252e5f06d08dbdf60762acd499f0fb0b94e874cac46e4b7af25479e6",
        (16, 16): "aeca66ffaaa03543598ec16607519b565b2da3702f2553f4fe1e547da44d3a26",
        (16, 100): "c43b5902f3d93375c1e93b79086235dabd87a373017f589e725c6849492b7c10",
        (16, 8192): "4e3d606833dcddf4c75f44302f0964a814a56f58d99f7a9d8e458f2e148c7b4c",
        (24, 100): "ba602805e10b7bf0b44cced4487e2a0990edc399fb6a8d5ebe2ca55451ff0fbc",
        (24, 8192): "8fcdf6d541639363984111c54bde35c73d04d5a913ad2a7c7885297361f62cad",
        (32, 100): "2e0dbf1d3d549a3163bbfd7fb1a113bb7a7a1ffca61158ff7e58c960d3965b31",
        (32, 8192): "56ea2e71954078fbf8d20bffb3658774cf073e90e2530325ede3b7858cfb30e9",
    }

    @pytest.mark.parametrize("aes_key_size,length", sorted(GOLDEN))
    def test_ciphertext_unchanged(self, aes_key_size, length):
        cipher = AesCtrHmacCipher(aes_key_size=aes_key_size)
        plaintext = bytes((7 * i + 3) & 0xFF for i in range(length))
        for _ in range(2):  # cold key state, then the remembered one
            ciphertext = cipher.encrypt(self.KEY, plaintext, nonce=self.NONCE)
            assert (
                hashlib.sha256(ciphertext).hexdigest()
                == self.GOLDEN[aes_key_size, length]
            )
            assert cipher.decrypt(self.KEY, ciphertext) == plaintext


def _remembered(cipher):
    return list(cipher._key_states)


class TestKeyStateReuse:
    """HKDF and the AES key schedule run once per remembered caller key."""

    def test_one_key_schedule_per_key(self, key_setups):
        cipher = AesCtrHmacCipher()
        sealed = [cipher.encrypt(b"k1", b"x" * n) for n in (0, 16, 100, 600)]
        assert len(key_setups) == 1
        for ciphertext in sealed:
            cipher.decrypt(b"k1", ciphertext)
        assert len(key_setups) == 1
        cipher.encrypt(b"k2", b"y")
        assert len(key_setups) == 2

    def test_decrypt_remembers_only_after_the_tag_verified(self, key_setups):
        sealed = AesCtrHmacCipher().encrypt(b"right", b"message")
        cipher = AesCtrHmacCipher()  # a receiver that never encrypted
        tampered = bytearray(sealed)
        tampered[20] ^= 1
        for key, ciphertext in ((b"wrong", sealed), (b"right", bytes(tampered))):
            with pytest.raises(DecryptionError):
                cipher.decrypt(key, ciphertext)
        assert _remembered(cipher) == [] and key_setups == [16]
        assert cipher.decrypt(b"right", sealed) == b"message"
        assert _remembered(cipher) == [b"right"] and len(key_setups) == 2
        # A failed candidate neither evicts nor reorders what is remembered.
        cipher.encrypt(b"other", b"")
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"wrong", sealed)
        with pytest.raises(DecryptionError):
            cipher.decrypt(b"right", bytes(tampered))
        assert _remembered(cipher) == [b"right", b"other"]

    def test_bound_holds_and_eviction_is_least_recently_used(self, key_setups):
        cipher = AesCtrHmacCipher()
        bound = cipher.KEY_STATES
        keys = [b"key-%d" % i for i in range(bound)]
        sealed = {key: cipher.encrypt(key, b"payload") for key in keys}
        assert _remembered(cipher) == keys
        cipher.decrypt(keys[0], sealed[keys[0]])  # touch the oldest...
        for i in range(3 * bound):  # ...then flood with hostile failures
            with pytest.raises(DecryptionError):
                cipher.decrypt(b"hostile-%d" % i, sealed[keys[1]])
        assert len(key_setups) == bound
        cipher.encrypt(b"one-more", b"")  # ...so the second oldest goes
        assert len(_remembered(cipher)) == bound
        assert keys[0] in _remembered(cipher) and keys[1] not in _remembered(cipher)
        for i in range(4 * bound):
            cipher.encrypt(b"churn-%d" % i, b"")
            assert len(_remembered(cipher)) == bound
        # An evicted key still works; it just pays one more key schedule.
        before = len(key_setups)
        assert cipher.decrypt(keys[2], sealed[keys[2]]) == b"payload"
        assert len(key_setups) == before + 1

    def test_pickle_carries_no_remembered_key(self):
        cipher = AesCtrHmacCipher(aes_key_size=24)
        secret = b"\xde\xad\xbe\xef-do-not-ship-this-key"
        sealed = cipher.encrypt(secret, b"message")
        blob = pickle.dumps(cipher)
        assert secret not in blob
        clone = pickle.loads(blob)
        assert _remembered(clone) == [] and clone.aes_key_size == 24
        assert clone.h is cipher.h
        assert clone.decrypt(secret, sealed) == b"message"

    def test_repr_shows_no_key_bytes(self):
        cipher = AesCtrHmacCipher()
        secret = b"SECRETKEYSECRETKEY"
        cipher.encrypt(secret, b"message")
        shown = repr(cipher)
        assert shown == "AesCtrHmacCipher(aes_key_size=16, h=sha256)"
        for leak in (secret.decode(), secret.hex(), repr(secret)):
            assert leak not in shown

    def test_threads_share_one_cipher_under_rotating_keys(self):
        """More threads than cores, more keys than the table holds, a short
        switch interval: every round trip must still be exact and the bound
        must hold (a lost update in the table would break one or the other)."""
        cipher = AesCtrHmacCipher()
        keys = [b"rotating-%d" % i for i in range(cipher.KEY_STATES + 9)]
        errors = []

        def worker(offset):
            try:
                for step in range(150):
                    key = keys[(offset + 7 * step) % len(keys)]
                    message = b"%d/%d" % (offset, step) * (1 + step % 9)
                    if cipher.decrypt(key, cipher.encrypt(key, message)) != message:
                        errors.append("round trip %d/%d" % (offset, step))
                    with cipher._lock:  # between two updates, not inside one
                        if len(cipher._key_states) > cipher.KEY_STATES:
                            errors.append("bound exceeded")
            except Exception as exc:  # surfaced through the assertion below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cipher._key_states) == cipher.KEY_STATES
