"""From-scratch ACV builds, the baseline of the differential tests.

The publish path always builds through an
:class:`~repro.gkm.strategy.AcvBuildCache`.  Inside :func:`from_scratch`
the cache never answers: every lookup misses (and is counted) and no
entry is a base -- neither a join's extension nor a revoke's row
removal -- so each build runs the full elimination over fresh nonces.  Headers are
byte-identical to :meth:`~repro.gkm.acv.AcvBgkm.generate` for the same
RNG state.
"""

import contextlib

import pytest

from repro.gkm.strategy import AcvBuildCache


def _miss(cache, rows, n_max):
    cache.misses += 1
    return None


@contextlib.contextmanager
def from_scratch():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AcvBuildCache, "lookup", _miss)
        patch.setattr(AcvBuildCache, "take_base", lambda *_: None)
        yield
