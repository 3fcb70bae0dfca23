"""The four entities of the dissemination system (Section III).

* :class:`~repro.system.idp.IdentityProvider` issues certified attribute
  assertions to subscribers;
* :class:`~repro.system.idmgr.IdentityManager` turns assertions into
  *identity tokens* ``(nym, id-tag, c, sigma)`` whose value lives only
  inside a Pedersen commitment;
* :class:`~repro.system.publisher.Publisher` manages policies and the CSS
  table, runs OCBE registrations as the oblivious sender, and broadcasts
  encrypted documents with ACV-BGKM headers;
* :class:`~repro.system.subscriber.Subscriber` registers its tokens
  (learning CSSs exactly for the conditions its hidden values satisfy) and
  decrypts the authorized portions of broadcasts.

Entities interact exclusively through serialized wire messages
(:mod:`repro.wire`) routed by a :class:`~repro.system.transport.Transport`:
the :class:`~repro.system.service.DisseminationService` /
:class:`~repro.system.service.SubscriberClient` /
:class:`~repro.system.service.IdentityManagerEndpoint` endpoints drive the
session state machines, and the transport's accounting log lets tests and
examples audit precisely what the publisher observes.
:mod:`~repro.system.registration` is the one-call in-process driver of
that machinery (EHR workload, examples, system tests).

Exports resolve lazily (PEP 562), like the package root's: an eager
``from repro.system.service import ...`` here would close a cycle with
:mod:`repro.wire.messages` (which needs only the leaf
:mod:`repro.system.identity`) and would drag the whole entity stack
into any process that touches one submodule.
"""

import importlib

_EXPORTS = {
    "CssTable": "repro.system.css",
    "AttributeAssertion": "repro.system.identity",
    "IdentityToken": "repro.system.identity",
    "IdentityManager": "repro.system.idmgr",
    "IdentityProvider": "repro.system.idp",
    "Publisher": "repro.system.publisher",
    "SystemParams": "repro.system.publisher",
    "register_all_attributes": "repro.system.registration",
    "register_for_attribute": "repro.system.registration",
    "DisseminationService": "repro.system.service",
    "IdentityManagerEndpoint": "repro.system.service",
    "SubscriberClient": "repro.system.service",
    "run_until_idle": "repro.system.service",
    "Subscriber": "repro.system.subscriber",
    "BROADCAST": "repro.system.transport",
    "Delivery": "repro.system.transport",
    "InMemoryTransport": "repro.system.transport",
    "Transport": "repro.system.transport",
}


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "CssTable",
    "AttributeAssertion",
    "IdentityToken",
    "IdentityManager",
    "IdentityProvider",
    "Publisher",
    "SystemParams",
    "Subscriber",
    "BROADCAST",
    "Delivery",
    "Transport",
    "InMemoryTransport",
    "DisseminationService",
    "SubscriberClient",
    "IdentityManagerEndpoint",
    "run_until_idle",
    "register_for_attribute",
    "register_all_attributes",
]
