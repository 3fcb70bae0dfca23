"""The wire protocol: codec, typed messages and session state machines.

Everything two entities of the dissemination system say to each other is
a serializable, versioned message defined here.  The layering is:

* :mod:`repro.wire.codec` -- length-prefixed fields and the
  ``magic || version || type || length || payload`` frame;
* :mod:`repro.wire.messages` -- one frozen dataclass per protocol
  message, with exact byte encodings;
* :mod:`repro.wire.sessions` -- per-entity state machines that consume
  and produce framed bytes (no transport knowledge);
* :mod:`repro.system.service` -- endpoints binding sessions to a
  :class:`~repro.system.transport.Transport`.

See ``DESIGN.md`` for the message-flow diagram.

The message/session names are re-exported lazily (PEP 562): the OCBE and
system layers import :mod:`repro.wire.codec` at module load, so an eager
re-export here would close an import cycle.
"""

from repro.wire.codec import (  # the cycle-free base layer
    WIRE_MAGIC,
    WIRE_VERSION,
    Cursor,
    decode_frame,
    encode_frame,
)

_MESSAGE_NAMES = (
    "WireMessage",
    "MESSAGE_TYPES",
    "ConditionQuery",
    "ConditionList",
    "RegistrationRequest",
    "RegistrationAck",
    "AuxCommitments",
    "OCBEEnvelope",
    "TokenRequest",
    "TokenGrant",
    "BroadcastMessage",
    "decode_message",
)
_SESSION_NAMES = (
    "PublisherRegistrationSession",
    "SubscriberRegistrationSession",
)

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "Cursor",
    "encode_frame",
    "decode_frame",
    *_MESSAGE_NAMES,
    *_SESSION_NAMES,
]


def __getattr__(name):
    if name in _MESSAGE_NAMES:
        from repro.wire import messages

        return getattr(messages, name)
    if name in _SESSION_NAMES:
        from repro.wire import sessions

        return getattr(sessions, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(__all__)
