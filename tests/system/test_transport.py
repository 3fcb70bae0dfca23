"""Tests for the accounting transport."""

import tracemalloc

from repro.system.transport import Delivery, InMemoryTransport, Message


class TestAccounting:
    def test_bytes_between(self):
        t = InMemoryTransport()
        t.send("a", "b", "k1", 100)
        t.send("a", "b", "k1", 50)
        t.send("b", "a", "k2", 10)
        assert t.bytes_between("a", "b") == 150
        assert t.bytes_between("b", "a") == 10
        assert t.bytes_between("a", "c") == 0

    def test_aggregates(self):
        t = InMemoryTransport()
        t.send("a", "b", "k", 100)
        t.send("a", "c", "k", 20)
        t.send("c", "a", "k", 5)
        assert t.bytes_sent_by("a") == 120
        assert t.bytes_received_by("a") == 5
        assert t.bytes_received_by("b") == 100

    def test_views(self):
        t = InMemoryTransport()
        t.send("a", "b", "k", 1, note="n1")
        t.send("c", "d", "k", 1)
        seen = t.messages_seen_by("a")
        assert seen == [Message("a", "b", "k", 1, "n1")]

    def test_kind_counts(self):
        t = InMemoryTransport()
        t.send("a", "b", "x", 1)
        t.send("a", "b", "x", 1)
        t.send("a", "b", "y", 1)
        assert t.kinds_count() == {"x": 2, "y": 1}

    def test_reset(self):
        t = InMemoryTransport()
        t.send("a", "b", "x", 1)
        t.reset()
        assert t.messages == []
        assert t.bytes_between("a", "b") == 0


class TestInboxes:
    def test_broadcast_polls_as_deliveries_addressed_to_each_inbox(self):
        t = InMemoryTransport()
        for entity in ("a", "b", "c"):
            t.register(entity)
        t.broadcast("a", "k", b"payload", note="n")
        (b,) = t.poll("b")
        assert b == Delivery("a", "b", "k", b"payload", "n", b"")
        assert t.poll("c")[0].receiver == "c"
        assert t.poll("a") == []
        t.requeue("b", [b])
        t.deliver("a", "b", "k2", b"later")
        assert [d.kind for d in t.poll("b")] == ["k", "k2"]

    def test_an_unpolled_inbox_costs_a_slot_per_broadcast(self):
        """A multicast queues one shared record: 200 broadcasts into 32
        inboxes nobody polls allocate under 64 B per delivery, the
        accounting log included."""
        t = InMemoryTransport()
        for index in range(33):
            t.register("e%d" % index)
        payload = bytes(512)
        t.broadcast("e0", "k", payload)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                t.broadcast("e0", "k", payload)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert t.pending() == 201 * 32
        assert grown < 64 * 200 * 32
