"""The socket runtime: entities as OS processes over real TCP.

``repro.system`` pinned the :class:`~repro.system.transport.Transport`
protocol so a network backend could slot in under the endpoints without
touching the session layer; this package is that backend.

* :mod:`repro.net.stream` -- incremental frame parsing and asyncio frame
  streams over the :mod:`repro.wire.codec` frame format, with write
  backpressure and the shared max-frame-size cap.
* :mod:`repro.net.protocol` -- the net-level control messages (hello,
  routed delivery, multicast, acks, stats) that carry the application's
  wire frames between a client and the broker.  The broker never parses
  the inner frames: routed payloads stay opaque, so the privacy boundary
  of the wire protocol is preserved on the network path.
* :mod:`repro.net.node` -- the asyncio :class:`Node`, the one kind of
  forwarding server: it routes frames between named entities exactly
  like ``InMemoryTransport`` (FIFO inboxes, ``"*"`` multicast fan-out,
  byte accounting) when it is the root of the tree, and forwards to its
  upstream when it is not.  ``python -m repro.net.broker`` (no upstream)
  and ``python -m repro.net.relay`` (``--upstream``) are its two entry
  points; :mod:`repro.net.relay` also re-exports the monitor clients.
* :mod:`repro.net.transport` -- :class:`TcpTransport`, a synchronous
  ``Transport`` implementation over a background asyncio loop, so
  ``DisseminationService`` / ``SubscriberClient`` /
  ``IdentityManagerEndpoint`` run unchanged over sockets.
* :mod:`repro.net.runtime` -- process/thread supervision: in-process
  node harness, endpoint pump loops, broker-quiescence waiting (the
  async analogue of :func:`repro.system.service.run_until_idle`), and a
  subprocess supervisor with graceful shutdown.
* :mod:`repro.net.bootstrap` -- the scenario/bundle files that let
  separate OS processes agree on public parameters.
* ``python -m repro.net.idmgr|publisher|subscriber`` -- runnable entity
  servers (see ``examples/networked_service.py`` for the full lifecycle).
"""

import importlib

__all__ = [
    "BrokerThread",
    "FrameDecoder",
    "FrameStream",
    "Node",
    "ProcessSupervisor",
    "TcpTransport",
    "pump_until",
    "wait_until_quiet",
]

_EXPORTS = {
    "BrokerThread": "repro.net.runtime",
    "Node": "repro.net.node",
    "ProcessSupervisor": "repro.net.runtime",
    "pump_until": "repro.net.runtime",
    "wait_until_quiet": "repro.net.runtime",
    "FrameDecoder": "repro.net.stream",
    "FrameStream": "repro.net.stream",
    "TcpTransport": "repro.net.transport",
}


def __getattr__(name: str):
    # Lazy (PEP 562) so `python -m repro.net.broker` does not import the
    # broker module twice (once via this package, once as __main__).
    if name in _EXPORTS:
        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
