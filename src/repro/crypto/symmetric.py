"""Semantically secure symmetric envelopes (the paper's ``E_Key[M]``).

The OCBE protocols and the document-dissemination layer both need an
IND-CPA-secure symmetric scheme keyed by arbitrary-length secrets.  Two
interchangeable backends implement the small :class:`SymmetricCipher`
interface:

* :class:`AesCtrHmacCipher` -- AES-CTR with HMAC-SHA-256 in
  encrypt-then-MAC composition (authenticated; the default);
* :class:`HashStreamCipher` -- a hash-counter stream cipher with an HMAC
  tag, useful where a very cheap software cipher is wanted and as an
  independent implementation for differential testing.

Both produce self-contained ciphertexts ``nonce || body || tag`` and raise
:class:`~repro.errors.DecryptionError` on any authentication failure, so a
subscriber that derived a *wrong* group key learns nothing but "failed" --
matching the OCBE requirement that decryption under the wrong committed
value yields no information.
"""

from __future__ import annotations

import abc
import secrets
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.crypto.aes import AES
from repro.crypto.hashes import HashFunction, default_hash, expand_message
from repro.crypto.kdf import derive_key
from repro.crypto.mac import constant_time_equal, hmac_digest
from repro.crypto.modes import ctr_xor, xor_bytes
from repro.errors import DecryptionError, InvalidParameterError

__all__ = [
    "SymmetricCipher",
    "AesCtrHmacCipher",
    "HashStreamCipher",
    "default_cipher",
    "NONCE_LEN",
]

NONCE_LEN = 16
_NONCE_LEN = NONCE_LEN
_TAG_LEN = 16


def _resolve_nonce(nonce: Optional[bytes]) -> bytes:
    if nonce is None:
        return secrets.token_bytes(_NONCE_LEN)
    if len(nonce) != _NONCE_LEN:
        raise InvalidParameterError("nonce must be %d bytes" % _NONCE_LEN)
    return nonce


class SymmetricCipher(abc.ABC):
    """Key-based authenticated encryption of byte strings."""

    name: str = "abstract"

    @abc.abstractmethod
    def encrypt(
        self, key: bytes, plaintext: bytes, nonce: Optional[bytes] = None
    ) -> bytes:
        """Encrypt; output embeds nonce and authentication tag.

        ``nonce`` defaults to a fresh CSPRNG draw.  Callers that manage
        their own randomness streams (the OCBE senders, which draw every
        envelope's random choices up front so the arithmetic is a pure
        function of the draw) pass an explicit ``NONCE_LEN``-byte value;
        it must never repeat under the same key.
        """

    @abc.abstractmethod
    def decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        """Decrypt; raises :class:`DecryptionError` on any failure."""

    def overhead(self) -> int:
        """Ciphertext expansion in bytes."""
        return _NONCE_LEN + _TAG_LEN


class AesCtrHmacCipher(SymmetricCipher):
    """AES-CTR + HMAC (encrypt-then-MAC).  The library default.

    The caller's ``key`` may have any length; it is stretched with HKDF
    into independent encryption and MAC subkeys.

    The cipher remembers, for the :attr:`KEY_STATES` most recently used
    caller keys, the derived ``(AES instance, mac key)`` pair, so HKDF and
    the AES key schedule run once per configuration key rather than once
    per subdocument per member.  A key is remembered when it encrypts or
    after a tag has *verified* under it -- never by a failed candidate, so
    neither the bucketed scan's wrong keys nor a hostile package can evict
    a live one.  The table holds nothing its owner does not already hold
    (a subscriber keeps its CSSs and the packages, a publisher its
    ``last_keys``), is guarded by a lock (``default_cipher()`` is one
    object shared by every thread) and is dropped by pickling.
    """

    name = "aes-ctr-hmac"

    #: How many caller keys are remembered (least recently used goes first).
    KEY_STATES = 64

    def __init__(self, aes_key_size: int = 16, h: Optional[HashFunction] = None):
        if aes_key_size not in (16, 24, 32):
            raise InvalidParameterError("aes_key_size must be 16/24/32")
        self.aes_key_size = aes_key_size
        self.h = h or default_hash()
        self._key_states: "OrderedDict[bytes, Tuple[AES, bytes]]" = OrderedDict()
        self._lock = threading.Lock()

    def __reduce__(self):
        # Only the configuration crosses a pickle boundary: the table holds
        # derived key material (and a lock), which must never be serialized;
        # a copy starts with nothing remembered.
        return (type(self), (self.aes_key_size, self.h))

    def __repr__(self) -> str:
        return "AesCtrHmacCipher(aes_key_size=%d, h=%s)" % (
            self.aes_key_size,
            self.h.name,
        )

    def _mac_key(self, key: bytes) -> bytes:
        return derive_key(key, 32, info=b"repro/aes-ctr/mac", h=self.h)

    def _lookup(self, key: bytes) -> Optional[Tuple[AES, bytes]]:
        with self._lock:
            return self._key_states.get(key)

    def _derive(self, key: bytes, mac_key: bytes) -> Tuple[AES, bytes]:
        enc_key = derive_key(
            key, self.aes_key_size, info=b"repro/aes-ctr/enc", h=self.h
        )
        return AES(enc_key), mac_key

    def _remember(self, key: bytes, state: Tuple[AES, bytes]) -> Tuple[AES, bytes]:
        """Make ``key`` the most recently used entry; evict past the bound."""
        with self._lock:
            self._key_states[key] = state
            self._key_states.move_to_end(key)
            while len(self._key_states) > self.KEY_STATES:
                self._key_states.popitem(last=False)
        return state

    def encrypt(
        self, key: bytes, plaintext: bytes, nonce: Optional[bytes] = None
    ) -> bytes:
        nonce = _resolve_nonce(nonce)
        state = self._lookup(key) or self._derive(key, self._mac_key(key))
        aes, mac_key = self._remember(key, state)
        body = ctr_xor(aes, nonce, plaintext)
        tag = hmac_digest(mac_key, nonce + body, self.h)[:_TAG_LEN]
        return nonce + body + tag

    def decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _NONCE_LEN + _TAG_LEN:
            raise DecryptionError("ciphertext too short")
        state = self._lookup(key)
        mac_key = state[1] if state else self._mac_key(key)
        nonce = ciphertext[:_NONCE_LEN]
        body = ciphertext[_NONCE_LEN:-_TAG_LEN]
        tag = ciphertext[-_TAG_LEN:]
        expected = hmac_digest(mac_key, nonce + body, self.h)[:_TAG_LEN]
        if not constant_time_equal(tag, expected):
            raise DecryptionError("authentication tag mismatch")
        # Only now -- the tag verified -- does the key earn a key schedule
        # and a place in the table; a failed candidate leaves both alone.
        aes, _ = self._remember(key, state or self._derive(key, mac_key))
        return ctr_xor(aes, nonce, body)


class HashStreamCipher(SymmetricCipher):
    """Hash-counter stream cipher with an HMAC tag.

    Keystream = ``H(counter || key || nonce)`` blocks; security reduces to
    the hash behaving as a random oracle, the same assumption the paper's
    GKM analysis already makes.  One native hash call per 32 bytes: cheaper
    than the AES backend on this pure-Python host at every size measured
    (DESIGN.md, "Options audit").
    """

    name = "hash-stream"

    def __init__(self, h: Optional[HashFunction] = None):
        self.h = h or default_hash()

    def encrypt(
        self, key: bytes, plaintext: bytes, nonce: Optional[bytes] = None
    ) -> bytes:
        nonce = _resolve_nonce(nonce)
        stream = expand_message(self.h, key + nonce, len(plaintext))
        body = xor_bytes(plaintext, stream)
        mac_key = derive_key(key, 32, info=b"repro/hash-stream/mac", h=self.h)
        tag = hmac_digest(mac_key, nonce + body, self.h)[:_TAG_LEN]
        return nonce + body + tag

    def decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _NONCE_LEN + _TAG_LEN:
            raise DecryptionError("ciphertext too short")
        nonce = ciphertext[:_NONCE_LEN]
        body = ciphertext[_NONCE_LEN:-_TAG_LEN]
        tag = ciphertext[-_TAG_LEN:]
        mac_key = derive_key(key, 32, info=b"repro/hash-stream/mac", h=self.h)
        expected = hmac_digest(mac_key, nonce + body, self.h)[:_TAG_LEN]
        if not constant_time_equal(tag, expected):
            raise DecryptionError("authentication tag mismatch")
        stream = expand_message(self.h, key + nonce, len(body))
        return xor_bytes(body, stream)


_DEFAULT = AesCtrHmacCipher()


def default_cipher() -> SymmetricCipher:
    """The library-wide default authenticated cipher (AES-CTR + HMAC)."""
    return _DEFAULT
