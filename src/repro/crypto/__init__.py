"""Cryptographic primitives built from scratch.

The paper's C/C++ system uses OpenSSL SHA-1, AES and NTL; this package
takes SHA-1/SHA-256 from ``hashlib`` and builds the rest in Python:

* :mod:`repro.crypto.hashes` -- named SHA-1/SHA-256 (``hashlib``-backed)
  and the canonical ``H(r_1 || ... || r_m || z)`` used by the GKM scheme;
* :mod:`repro.crypto.aes` -- the FIPS-197 AES-128/192/256 forward cipher
  (CTR mode never inverts a block);
* :mod:`repro.crypto.modes` -- CTR mode;
* :mod:`repro.crypto.mac` / :mod:`repro.crypto.kdf` -- HMAC and HKDF;
* :mod:`repro.crypto.symmetric` -- the semantically-secure symmetric
  envelope ``E_Key[M]`` the OCBE protocols require (AES-CTR with
  encrypt-then-MAC, or a hash-based stream cipher);
* :mod:`repro.crypto.pedersen` -- Pedersen commitments over any
  :class:`~repro.groups.base.CyclicGroup`;
* :mod:`repro.crypto.schnorr_sig` -- Schnorr signatures (the IdMgr's token
  signature).
"""

from repro.crypto.hashes import (
    HashFunction,
    default_hash,
    hash_concat,
    hash_to_int,
    hash_to_range,
)
from repro.crypto.aes import AES
from repro.crypto.kdf import hkdf_expand, hkdf_extract, derive_key
from repro.crypto.mac import hmac_digest
from repro.crypto.modes import ctr_keystream, ctr_xor
from repro.crypto.pedersen import PedersenCommitment, PedersenParams
from repro.crypto.schnorr_sig import SchnorrKeyPair, SchnorrSignature
from repro.crypto.symmetric import (
    AesCtrHmacCipher,
    HashStreamCipher,
    SymmetricCipher,
    default_cipher,
)

__all__ = [
    "HashFunction",
    "default_hash",
    "hash_concat",
    "hash_to_int",
    "hash_to_range",
    "AES",
    "hkdf_expand",
    "hkdf_extract",
    "derive_key",
    "hmac_digest",
    "ctr_keystream",
    "ctr_xor",
    "PedersenCommitment",
    "PedersenParams",
    "SchnorrKeyPair",
    "SchnorrSignature",
    "AesCtrHmacCipher",
    "HashStreamCipher",
    "SymmetricCipher",
    "default_cipher",
]
