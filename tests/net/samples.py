"""One sample table for the net codec tests.

At least one instance of every net frame type (several where a type has
distinct shapes: refusals, truncated logs, routed reports), shared by
the round-trip/robustness cases in ``test_protocol.py`` and the trace
trailer cases in ``test_obs_net.py``.
"""

from repro.net.protocol import (
    Ack,
    Hello,
    NetBroadcast,
    NetDeliver,
    RelayAttach,
    RelayAttachReply,
    RelayBroadcast,
    RelayDetach,
    RelayHello,
    RelayWelcome,
    Shutdown,
    StatsReply,
    StatsRequest,
    TrafficRecord,
    Welcome,
)

SAMPLES = [
    Hello(entity="pn-0001"),
    Welcome(ok=True, entity="pn-0001"),
    Welcome(ok=False, entity="*", reason="reserved"),
    NetDeliver(sender="a", receiver="b", kind="k", note="n", payload=b"\x00\xffp"),
    NetBroadcast(sender="pub", kind="pkg", note="doc", payload=b"body"),
    Ack(count=3),
    StatsRequest(include_log=True),
    # As stamped by the first hop, asking for the metrics snapshot too.
    StatsRequest(metrics=True, entity="pn-0042"),
    StatsReply(pending=1, in_flight=2, delivered_total=3, dropped=4,
               log=(TrafficRecord("a", "b", "k", 9, "n"),
                    TrafficRecord("p", "*", "pkg", 300))),
    StatsReply(pending=0, in_flight=0, delivered_total=7, log_complete=False),
    StatsReply(pending=0, in_flight=0, delivered_total=7,
               counters=(("relay_links", 2), ("slow_consumer_disconnects", 1))),
    # Routed down to its asker / pushed up a link as a subtree report.
    StatsReply(pending=0, in_flight=0, delivered_total=7, entity="pn-0042",
               metrics=b'{"counters":{"broker.connect":1}}'),
    StatsReply(pending=0, in_flight=0, delivered_total=0,
               metrics=b'{"gauges":{"relay.nodes":1}}'),
    Shutdown(),
    RelayHello(relay_id="r1"),
    RelayWelcome(ok=True, relay_id="r1", path=("root", "r0")),
    RelayWelcome(ok=False, relay_id="r1", reason="loop refused"),
    RelayAttach(entity="pn-0042"),
    RelayAttachReply(ok=True, entity="pn-0042"),
    RelayAttachReply(ok=False, entity="*", reason="reserved"),
    RelayDetach(entity="pn-0042"),
    RelayBroadcast(seq=7, sender="pub", kind="pkg", note="doc", payload=b"body"),
]
