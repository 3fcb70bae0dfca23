"""Round trips and robustness for the net control messages."""

import pytest

from repro.errors import SerializationError
from repro.net.protocol import (
    MAX_RELAY_PATH,
    NET_MESSAGE_TYPES,
    RelayWelcome,
    StatsReply,
    decode_net_message,
)
from tests.net.samples import SAMPLES


def test_samples_cover_every_frame_type():
    """Every codec case below (and the trace-trailer matrix in
    test_obs_net.py) really does hit every net frame."""
    assert {type(m) for m in SAMPLES} == set(NET_MESSAGE_TYPES.values())


def test_frame_type_census():
    """The surviving type IDs, pinned: every frame a node speaks is
    hostile-input surface, so one cannot (re)appear without this list
    -- and its reviewers -- noticing."""
    assert {cls.__name__: type_id for type_id, cls in NET_MESSAGE_TYPES.items()} == {
        "Hello": 64,
        "Welcome": 65,
        "NetDeliver": 66,
        "NetBroadcast": 67,
        "Ack": 68,
        "StatsRequest": 69,
        "StatsReply": 70,
        "Shutdown": 71,
        "RelayHello": 72,
        "RelayWelcome": 73,
        "RelayAttach": 74,
        "RelayAttachReply": 75,
        "RelayDetach": 76,
        "RelayBroadcast": 77,
    }


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_round_trip(message):
    assert decode_net_message(message.encode()) == message


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_reencode_identical(message):
    assert decode_net_message(message.encode()).encode() == message.encode()


def test_type_ids_disjoint_from_application_messages():
    """A net frame can never be mistaken for an application frame."""
    from repro.wire.messages import MESSAGE_TYPES

    assert not set(NET_MESSAGE_TYPES) & set(MESSAGE_TYPES)


def test_unknown_type_rejected():
    from repro.wire.codec import encode_frame

    with pytest.raises(SerializationError, match="unknown net frame type"):
        decode_net_message(encode_frame(200, b""))


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_truncation_rejected(message):
    frame = message.encode()
    for cut in range(8, len(frame)):
        with pytest.raises(SerializationError):
            decode_net_message(frame[:cut])


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_trailing_garbage_rejected(message):
    payload = message.payload_bytes() + b"!"
    with pytest.raises(SerializationError):
        type(message).from_payload(payload)


def test_relay_welcome_path_bounded():
    """A hostile upstream cannot declare an absurd path (pre-allocation
    bound, same idea as the frame-header check)."""
    long_path = tuple("r%d" % i for i in range(MAX_RELAY_PATH + 1))
    payload = RelayWelcome(
        ok=True, relay_id="r", path=long_path
    ).payload_bytes()
    with pytest.raises(SerializationError, match="path"):
        RelayWelcome.from_payload(payload)


def test_stats_counters_lookup():
    stats = StatsReply(
        pending=0, in_flight=0, delivered_total=0,
        counters=(("unicast_down", 5),),
    )
    assert stats.counter("unicast_down") == 5
    assert stats.counter("missing") == 0
    assert stats.counter("missing", default=-1) == -1
