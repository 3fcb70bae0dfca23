"""Group key management (GKM): ACV-BGKM.

The paper's contribution is **ACV-BGKM** (:mod:`repro.gkm.acv`): broadcast
group key management through access control vectors, where a subscriber
derives the group key from public values and its conditional subscription
secrets, and rekeying is a pure re-publish (no unicast).

* :mod:`repro.gkm.acv` -- the scheme itself (Section V-C): matrix, null
  space, header codec, key derivation, and the carried factorization
  incremental joins extend;
* :mod:`repro.gkm.buckets` -- the Section VIII-C bucketed header (one ACV
  per bucket, same key) and the auto bucket-size policy;
* :mod:`repro.gkm.strategy` -- the publish-path builders: the dense and
  bucketed strategies over the ACV build cache, the only code that builds
  headers for a publisher.
"""

from repro.gkm.acv import FAST_FIELD, PAPER_FIELD, AcvBgkm, AcvHeader
from repro.gkm.buckets import BucketedHeader
from repro.gkm.strategy import (
    GKM_STRATEGIES,
    AcvBuildCache,
    BucketedGkmStrategy,
    DenseGkmStrategy,
    build_strategy,
    decode_keying_header,
)

__all__ = [
    "AcvBgkm",
    "AcvHeader",
    "PAPER_FIELD",
    "FAST_FIELD",
    "BucketedHeader",
    "GKM_STRATEGIES",
    "AcvBuildCache",
    "BucketedGkmStrategy",
    "DenseGkmStrategy",
    "build_strategy",
    "decode_keying_header",
]
