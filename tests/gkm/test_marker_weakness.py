"""Section VIII-D: the marker scheme's nonce-reuse weakness vs ACV-BGKM.

The paper argues that if two documents with the same user base share the
``z`` value, then in the reviewer's scheme an attacker knowing key ``k1``
immediately computes ``k2`` from the public values
(``X1 xor X2 = (k1||m) xor (k2||m)``), while ACV-BGKM can reuse its nonces
across two *independent* ACVs safely.  Both claims are demonstrated here
against the real implementations.
"""


import pytest

from repro.gkm.acv import FAST_FIELD, AcvBgkm
from repro.gkm.strategy import AcvBuildCache, DenseGkmStrategy
from repro.errors import InvalidParameterError
from repro.mathx.linalg import vec_dot
from tests.gkm.baselines.marker import MarkerBgkm


class TestMarkerNonceReuseLeak:
    def test_known_k1_reveals_k2(self, rng):
        """The attack the paper describes, executed end to end."""
        core = MarkerBgkm(key_len=16)
        rows = [(b"shared-css",)]
        z = bytes(16)  # the reused nonce
        k1, header1 = core.generate(rows, rng=rng, z=z)
        k2, header2 = core.generate(rows, rng=rng, z=z)
        assert k1 != k2

        # Attacker view: both public headers + knowledge of k1.  No CSS.
        x1 = header1.masked[0]
        x2 = header2.masked[0]
        xor = bytes(a ^ b for a, b in zip(x1, x2))
        # (k1||m) xor (k2||m) = (k1 xor k2) || 0...: marker part cancels.
        assert xor[16:] == bytes(len(xor) - 16)
        recovered_k2 = bytes(a ^ b for a, b in zip(xor[:16], k1))
        assert recovered_k2 == k2  # full key recovery!

    def test_fresh_nonce_does_not_leak(self, rng):
        core = MarkerBgkm(key_len=16)
        rows = [(b"shared-css",)]
        k1, header1 = core.generate(rows, rng=rng)
        k2, header2 = core.generate(rows, rng=rng)
        xor = bytes(a ^ b for a, b in zip(header1.masked[0], header2.masked[0]))
        # Pads differ, so the marker region does NOT cancel.
        assert xor[16:] != bytes(len(xor) - 16)

    def test_key_length_restriction(self):
        """The paper's other criticism: key must fit under the hash output."""
        with pytest.raises(InvalidParameterError):
            MarkerBgkm(key_len=32)  # 32 + marker > 32-byte SHA-256 output


class TestAcvNonceReuseSafety:
    def test_two_keys_one_matrix_independent(self, rng):
        """ACV-BGKM's counterpart (Section VIII-D): same user base, same
        z values, two linearly independent ACVs carrying different keys.
        Knowing k1 and both public vectors does not determine k2."""
        core = AcvBgkm(FAST_FIELD)
        rows = [(b"css-one",), (b"css-two",)]
        k1, header1 = core.generate(rows, n_max=4, rng=rng)
        # Second key over the SAME zs and null space: shift coordinate 0.
        k2 = (k1 + 12345) % FAST_FIELD.p
        x2 = list(header1.x)
        x2[0] = (x2[0] - k1 + k2) % FAST_FIELD.p
        # Subscribers derive both keys from their cached KEV:
        kev = core.key_extraction_vector(header1, rows[0])
        assert vec_dot(kev, header1.x, FAST_FIELD.p) == k1
        assert vec_dot(kev, tuple(x2), FAST_FIELD.p) == k2
        # Attacker with k1, X1, X2 but no CSS: X1 - X2 reveals only k1 - k2
        # *at coordinate 0* if Y were reused identically -- so a proper
        # deployment uses an independent Y per key.  Demonstrate the safe
        # variant: independent ACVs over the same zs.
        k3, header3 = core.generate(rows, n_max=4, rng=rng)
        diff = [
            (a - b) % FAST_FIELD.p for a, b in zip(header1.x, header3.x)
        ]
        # The difference vector is NOT of the form (k1-k3, 0, ..., 0):
        assert any(d != 0 for d in diff[1:])

    def test_subscriber_kev_cacheable(self, rng):
        """The deployment benefit: one KEV computation serves every key
        published against the same zs (the paper's daily-broadcast case).
        The publish path's build cache rekeys an unchanged membership over
        the cached nonces, so the subscriber's KEV carries over."""
        core = AcvBgkm(FAST_FIELD)
        strategy = DenseGkmStrategy(core, AcvBuildCache())
        rows = [(b"css-one",), (b"css-two",)]
        k1, header1 = strategy.build(rows, capacity=4, slack=0, rng=rng)
        kev = core.key_extraction_vector(header1, rows[1])
        k2, header2 = strategy.build(rows, capacity=4, slack=0, rng=rng)
        assert header2.zs == header1.zs and k2 != k1
        assert vec_dot(kev, header1.x, FAST_FIELD.p) == k1
        assert vec_dot(kev, header2.x, FAST_FIELD.p) == k2
