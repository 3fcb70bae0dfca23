"""Scenario/bundle bootstrap: separate processes must rebuild one world."""

import copy
import random

import pytest

from repro.errors import InvalidParameterError
from repro.net.bootstrap import (
    build_identity_stack,
    build_publisher,
    build_subscriber,
    expected_registrations,
    load_scenario,
    publisher_for_user,
    publisher_spec,
    read_bundle,
    write_bundle,
    write_json,
)

SCENARIO = {
    "group": "nist-p192",
    "seed": 99,
    "attribute_bits": 8,
    "gkm_field": "fast",
    "idp": "hr",
    "idmgr": "idmgr",
    "publishers": [
        {
            "name": "pub",
            "policies": [
                {"condition": "role = doc", "segments": ["clinical"],
                 "document": "report"},
                {"condition": "level >= 50", "segments": ["billing"],
                 "document": "report"},
            ],
            "documents": [
                {"name": "report",
                 "segments": [["clinical", "MRI fine."], ["billing", "Acct 7."]]},
            ],
        },
    ],
    "users": {
        "carol": {"role": "doc", "level": 70},
        "dave": {"role": "doc"},
    },
}


def _loaded(tmp_path, scenario=SCENARIO):
    path = tmp_path / "scenario.json"
    write_json(str(path), scenario)
    return load_scenario(str(path))


def test_identity_stack_is_deterministic(tmp_path):
    scenario = _loaded(tmp_path)
    _, idmgr_a, nyms_a, _ = build_identity_stack(scenario)
    _, idmgr_b, nyms_b, _ = build_identity_stack(scenario)
    assert idmgr_a.public_key == idmgr_b.public_key  # a restart re-derives keys
    assert nyms_a == nyms_b


def test_bundle_round_trip_and_cross_process_interop(tmp_path):
    scenario = _loaded(tmp_path)
    idp, idmgr, nyms, assertions = build_identity_stack(scenario)
    bundle_path = str(tmp_path / "bundle.json")
    write_bundle(bundle_path, scenario, idmgr, nyms, assertions)
    bundle = read_bundle(bundle_path)
    assert bundle.public_key == idmgr.public_key
    assert bundle.nyms == nyms

    # The publisher process (bundle only) can verify a token the IdMgr
    # process issues against a bundle-carried assertion: same Pedersen
    # bases, same public key -- reconstructed, never transmitted.
    publisher = build_publisher(scenario, bundle.public_key)
    token, x, r = idmgr.issue_token(
        nyms["carol"], bundle.assertions["carol"]["role"]
    )
    assert publisher.params.pedersen.group is idmgr.group
    assert publisher.params.pedersen.verify_open(token.commitment, x, r)

    # And the subscriber process rebuilds compatible SystemParams.
    subscriber = build_subscriber(scenario, bundle, "carol")
    assert subscriber.nym == nyms["carol"]
    subscriber.hold_token(token, x, r)
    assert subscriber.attribute_tags() == ["role"]


def test_subscriber_rngs_differ_per_user(tmp_path):
    scenario = _loaded(tmp_path)
    _, idmgr, nyms, assertions = build_identity_stack(scenario)
    bundle_path = str(tmp_path / "bundle.json")
    write_bundle(bundle_path, scenario, idmgr, nyms, assertions)
    bundle = read_bundle(bundle_path)
    carol = build_subscriber(scenario, bundle, "carol")
    dave = build_subscriber(scenario, bundle, "dave")
    assert carol.rng.getrandbits(64) != dave.rng.getrandbits(64)


def test_expected_registrations_counts_matching_conditions(tmp_path):
    scenario = _loaded(tmp_path)
    # carol holds role+level (2 conditions), dave only role (1 condition).
    assert expected_registrations(scenario) == 3


def test_scenario_validation(tmp_path):
    nobody = {k: v for k, v in SCENARIO.items() if k != "users"}
    with pytest.raises(InvalidParameterError, match="users"):
        _loaded(tmp_path, nobody)
    # The GKM settings pass the rules a LoadScenario's do.
    for key, value in (("gkm_field", "nope"), ("gkm", "sparse"),
                       ("gkm_bucket_size", -1)):
        with pytest.raises(InvalidParameterError, match=key):
            _loaded(tmp_path, dict(SCENARIO, **{key: value}))
    with pytest.raises(InvalidParameterError, match="revoke"):
        _loaded(tmp_path, dict(SCENARIO, revoke=["mallory"]))


def _mutated(edit):
    scenario = copy.deepcopy(SCENARIO)
    edit(scenario)
    return scenario


@pytest.mark.parametrize("key, edit", [
    ("revokes", lambda s: s.update(revokes=["carol"])),
    ("gkm_buckets", lambda s: s.update(gkm_buckets=4)),
    # the retired classic shape and relay section
    ("policies", lambda s: s.update(policies=[])),
    ("topology", lambda s: s.update(topology={})),
    ("gkm", lambda s: s["publishers"][0].update(gkm="bucketed")),
    ("segment", lambda s: s["publishers"][0]["policies"][0].update(segment="x")),
    ("title", lambda s: s["publishers"][0]["documents"][0].update(title="x")),
])
def test_unknown_keys_are_refused_at_every_level(tmp_path, key, edit):
    with pytest.raises(InvalidParameterError, match="unknown .*'%s'" % key):
        _loaded(tmp_path, _mutated(edit))


def test_policy_must_protect_published_segments(tmp_path):
    # A misnamed document would drop the policy at publish time and ship
    # its segments under a throwaway key; a misnamed segment would fail
    # only at the first publish.  Both are refused at load.
    def retarget(field, value):
        return _mutated(
            lambda s: s["publishers"][0]["policies"][0].update({field: value})
        )

    with pytest.raises(InvalidParameterError, match="unknown document"):
        _loaded(tmp_path, retarget("document", "reprot"))
    with pytest.raises(InvalidParameterError, match="unknown segment"):
        _loaded(tmp_path, retarget("segments", ["clinicle"]))


def test_publisher_rng_is_salted_with_its_name(tmp_path):
    scenario = _loaded(tmp_path)
    _, idmgr, _, _ = build_identity_stack(scenario)
    publisher = build_publisher(scenario, idmgr.public_key)
    # The derivation LoadEngine uses for its publishers.
    expected = random.Random("99/publisher/pub").getrandbits(64)
    assert publisher._rng.getrandbits(64) == expected


def test_unknown_user_rejected(tmp_path):
    scenario = _loaded(tmp_path)
    _, idmgr, nyms, assertions = build_identity_stack(scenario)
    bundle_path = str(tmp_path / "bundle.json")
    write_bundle(bundle_path, scenario, idmgr, nyms, assertions)
    bundle = read_bundle(bundle_path)
    with pytest.raises(InvalidParameterError, match="not in the bundle"):
        build_subscriber(scenario, bundle, "mallory")


# -- multi-publisher scenarios (PR 4) ----------------------------------------

MULTI_SCENARIO = {
    "group": "nist-p192",
    "seed": 44,
    "publishers": [
        {
            "name": "news",
            "policies": [
                {"condition": "news_tier >= 10", "segments": ["wire"],
                 "document": "daily"},
            ],
            "documents": [{"name": "daily", "segments": [["wire", "Rain."]]}],
        },
        {
            "name": "sports",
            "policies": [
                {"condition": "sports_tier >= 50", "segments": ["scores"],
                 "document": "scores"},
            ],
            "documents": [{"name": "scores", "segments": [["scores", "3-1"]]}],
        },
    ],
    "assignments": {"dave": "sports"},
    "users": {
        "carol": {"news_tier": 30},
        "dave": {"sports_tier": 70},
    },
}


def test_multi_publisher_specs_and_assignment(tmp_path):
    scenario = _loaded(tmp_path, MULTI_SCENARIO)
    assert [s.name for s in scenario["publishers"]] == ["news", "sports"]
    assert publisher_for_user(scenario, "carol") == "news"  # default: first
    assert publisher_for_user(scenario, "dave") == "sports"


def test_multi_publisher_builds_are_independent(tmp_path):
    scenario = _loaded(tmp_path, MULTI_SCENARIO)
    _, idmgr, nyms, assertions = build_identity_stack(scenario)
    news = build_publisher(scenario, idmgr.public_key, name="news")
    sports = build_publisher(scenario, idmgr.public_key, name="sports")
    assert news.name == "news" and sports.name == "sports"
    assert [c.name for c in news.conditions()] == ["news_tier"]
    assert [c.name for c in sports.conditions()] == ["sports_tier"]
    # Per-publisher RNG salting: the two processes never mint the same
    # CSS stream.
    assert news._rng.getrandbits(64) != sports._rng.getrandbits(64)
    with pytest.raises(InvalidParameterError, match="no publisher"):
        build_publisher(scenario, idmgr.public_key, name="ghost")


def test_multi_publisher_expected_registrations(tmp_path):
    scenario = _loaded(tmp_path, MULTI_SCENARIO)
    # carol registers news_tier at news; dave registers sports_tier at
    # sports: one condition each.
    assert expected_registrations(scenario) == 2
    assert expected_registrations(scenario, publisher="news") == 1
    assert expected_registrations(scenario, publisher="sports") == 1
    assert publisher_spec(scenario, "news").conditions_per_attribute() == {
        "news_tier": 1,
    }


def test_multi_publisher_validation(tmp_path):
    dupe = dict(MULTI_SCENARIO)
    dupe["publishers"] = [MULTI_SCENARIO["publishers"][0]] * 2
    with pytest.raises(InvalidParameterError, match="duplicate publisher"):
        _loaded(tmp_path, dupe)
    stray = dict(MULTI_SCENARIO, assignments={"carol": "ghost"})
    with pytest.raises(InvalidParameterError, match="unknown publisher"):
        _loaded(tmp_path, stray)
    nobody = dict(MULTI_SCENARIO, assignments={"ghost": "news"})
    with pytest.raises(InvalidParameterError, match="unknown user"):
        _loaded(tmp_path, nobody)
    neither = {"group": "nist-p192", "seed": 1, "users": {}}
    with pytest.raises(InvalidParameterError, match="publishers"):
        _loaded(tmp_path, neither)


def test_empty_publishers_list_is_typed(tmp_path):
    empty = {"group": "nist-p192", "seed": 1, "users": {}, "publishers": []}
    with pytest.raises(InvalidParameterError, match="non-empty"):
        _loaded(tmp_path, empty)
