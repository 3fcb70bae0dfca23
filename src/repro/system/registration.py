"""One-call registration over the wire protocol.

The paper's privacy practice (Section V-B / Example 3): a Sub registers
its identity token for **every** condition whose attribute name matches
the token's tag -- including mutually exclusive ones -- so the Pub cannot
infer from registration behaviour which condition the Sub actually
satisfies.

`register_for_attribute` / `register_all_attributes` are the in-process
driver for that practice, used by the EHR workload, the examples and the
system tests: they stand up a
:class:`~repro.system.service.DisseminationService` and a
:class:`~repro.system.service.SubscriberClient` on a shared
:class:`~repro.system.transport.InMemoryTransport` and pump frames until
the exchange quiesces.  Every inter-entity interaction crosses the
transport as serialized bytes, so the transport *routes* the real
messages and accounts them as a side effect.  (A long-lived endpoint
calls :meth:`SubscriberClient.register_all_attributes` on its own client
instead; this module is the same exchange for callers that hold only a
``Publisher`` and a ``Subscriber``.)
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import RegistrationError
from repro.system.publisher import Publisher
from repro.system.service import DisseminationService, SubscriberClient, run_until_idle
from repro.system.subscriber import Subscriber
from repro.system.transport import InMemoryTransport

__all__ = ["register_for_attribute", "register_all_attributes"]


def _wire_pair(publisher: Publisher, subscriber: Subscriber, transport):
    service = DisseminationService(publisher, transport)
    client = SubscriberClient(subscriber, transport, publisher.name)
    return service, client


def _raise_on_rejection(client: SubscriberClient) -> None:
    """Preserve the seed semantics: a publisher-side *rejection* (bad
    signature, misconfigured keys) is an error, not a quiet ``False`` --
    only "value does not satisfy the condition" may fail silently."""
    if client.failures:
        details = "; ".join(
            "%s: %s" % (key, reason) for key, reason in sorted(client.failures.items())
        )
        raise RegistrationError("publisher rejected registration (%s)" % details)


def register_for_attribute(
    publisher: Publisher,
    subscriber: Subscriber,
    attribute: str,
    transport: Optional[InMemoryTransport] = None,
) -> Dict[str, bool]:
    """Register the Sub's token for all of the Pub's ``attribute`` conditions.

    Returns ``{condition key: css extracted?}`` -- knowledge only the Sub
    has; the Pub's transcript (in ``transport``) is identical either way.
    """
    transport = transport if transport is not None else InMemoryTransport()
    service, client = _wire_pair(publisher, subscriber, transport)
    client.register_attribute(attribute)
    run_until_idle((service, client))
    _raise_on_rejection(client)
    return dict(client.results.get(attribute, {}))


def register_all_attributes(
    publisher: Publisher,
    subscriber: Subscriber,
    transport: Optional[InMemoryTransport] = None,
) -> Dict[str, Dict[str, bool]]:
    """Register every token the Sub holds against every matching condition."""
    transport = transport if transport is not None else InMemoryTransport()
    service, client = _wire_pair(publisher, subscriber, transport)
    client.register_all_attributes()
    run_until_idle((service, client))
    _raise_on_rejection(client)
    return {
        attribute: dict(outcomes)
        for attribute, outcomes in client.results.items()
        if outcomes
    }
