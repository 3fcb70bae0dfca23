"""ACV-BGKM on the flat baseline contract: one member = one single-CSS
row, built by the publish-path dense strategy over a fresh cache, so
every rekey is the full solve the baselines are compared against."""

from repro.errors import KeyDerivationError
from repro.gkm.acv import FAST_FIELD, AcvBgkm
from repro.gkm.strategy import AcvBuildCache, DenseGkmStrategy
from tests.gkm.baselines.base import BroadcastGkm, RekeyBroadcast


class AcvBroadcastGkm(BroadcastGkm):
    name = "acv-bgkm"

    def __init__(self, field=FAST_FIELD, key_len=16):
        super().__init__()
        self._core = AcvBgkm(field)
        self.key_len = key_len

    def rekey(self, rng=None):
        rows = [(secret,) for _, secret in sorted(self._members.items())]
        strategy = DenseGkmStrategy(self._core, AcvBuildCache())
        key, header = strategy.build(rows, capacity=None, slack=0, rng=rng)
        broadcast = RekeyBroadcast(self.name, header.to_bytes(), parts=header)
        return self._core.export_key(key, self.key_len), broadcast

    def derive(self, secret, broadcast):
        key = self._core.derive(broadcast.parts, (secret,))
        if key == 0:
            raise KeyDerivationError("derived the zero element")
        return self._core.export_key(key, self.key_len)
