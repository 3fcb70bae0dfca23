"""``python -m repro.net.relay``: one keyless node below the root.

A relay is a :class:`~repro.net.node.Node` with an upstream; everything
lives in :mod:`repro.net.node` (the monitor clients keep their import
path here)::

    python -m repro.net.relay --relay-id r1 --upstream HOST:PORT --port 0
"""

from repro.net import node
from repro.net.node import request_local_metrics, request_local_stats

__all__ = ["main", "request_local_metrics", "request_local_stats"]


def main(argv=None) -> int:
    return node.main(argv, relay=True)


if __name__ == "__main__":
    raise SystemExit(main())
