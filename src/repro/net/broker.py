"""``python -m repro.net.broker``: the root of the forwarding tree.

A broker is a :class:`~repro.net.node.Node` with no upstream; everything
lives in :mod:`repro.net.node`.  Run standalone::

    python -m repro.net.broker --port 7812 [--port-file PATH]
"""

from repro.net.node import main

__all__ = ["main"]

if __name__ == "__main__":
    raise SystemExit(main())
