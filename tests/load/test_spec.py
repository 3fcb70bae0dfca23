"""Scenario spec validation and the JSON round trip."""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.load import (
    BUILTIN_SCENARIOS,
    AttributeSpec,
    LoadScenario,
    PhaseSpec,
    builtin_scenario,
    churn_scenario,
    feed_publisher,
    load_scenario_file,
    smoke_scenario,
)


def test_builtins_validate():
    assert smoke_scenario().validate() is not None
    churn = churn_scenario()
    assert sum(1 for p in churn.phases
               if p.kind in ("join", "revoke", "flap")) >= 4
    assert len(churn.publishers) >= 2
    assert churn.phases[0].count >= 64


def test_json_round_trip(tmp_path):
    scenario = smoke_scenario()
    path = str(tmp_path / "scenario.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario.to_payload(), handle)
    assert load_scenario_file(path) == scenario
    # Exact for every builtin: from_payload refuses any key it does not read.
    for name in BUILTIN_SCENARIOS:
        builtin = builtin_scenario(name)
        assert LoadScenario.from_payload(builtin.to_payload()) == builtin


def test_from_payload_rejects_malformed():
    with pytest.raises(InvalidParameterError):
        LoadScenario.from_payload({"name": "x"})
    # A top-level key this version does not know -- a retired option or
    # a typo -- is named in the error, never silently defaulted.
    for key, value in (("ocbe_workers", 4), ("gkm_buckt_size", 8)):
        payload = {**smoke_scenario().to_payload(), key: value}
        with pytest.raises(InvalidParameterError, match=key):
            LoadScenario.from_payload(payload)


def _nested(edit):
    payload = smoke_scenario().to_payload()
    payload["topology"] = [{"name": "relay1", "upstream": None}]
    edit(payload)
    return payload


@pytest.mark.parametrize("key, edit", [
    ("publsher", lambda p: p["phases"][0].update(publsher="alpha")),
    ("gkm", lambda p: p["publishers"][0].update(gkm="bucketed")),
    ("hi", lambda p: p["publishers"][0]["attributes"][0].update(hi=9)),
    ("segment", lambda p: p["publishers"][0]["policies"][0].update(segment="x")),
    ("title", lambda p: p["publishers"][0]["documents"][0].update(title="x")),
    ("parent", lambda p: p["topology"][0].update(parent="relay0")),
])
def test_from_payload_refuses_unknown_nested_keys(key, edit):
    # The same rule as the top level, at every nesting level: a phase
    # with a misspelled "publisher" must not silently join round-robin.
    assert LoadScenario.from_payload(_nested(lambda p: None)) is not None
    with pytest.raises(InvalidParameterError, match="unknown .*'%s'" % key):
        LoadScenario.from_payload(_nested(edit))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.__class__(**{**_fields(s), "publishers": ()}),
        lambda s: s.__class__(**{**_fields(s), "phases": ()}),
        # first phase must be a join
        lambda s: s.__class__(
            **{**_fields(s), "phases": (PhaseSpec(kind="revoke", count=1),)}
        ),
        # unknown phase kind
        lambda s: s.__class__(
            **{**_fields(s),
               "phases": (PhaseSpec(kind="join", count=1),
                          PhaseSpec(kind="meltdown", count=1))}
        ),
        # phase targeting an unknown publisher
        lambda s: s.__class__(
            **{**_fields(s),
               "phases": (PhaseSpec(kind="join", count=1, publisher="nope"),)}
        ),
        # duplicate publisher
        lambda s: s.__class__(
            **{**_fields(s),
               "publishers": (feed_publisher("alpha"), feed_publisher("alpha"))}
        ),
        # bad seed type
        lambda s: s.__class__(**{**_fields(s), "seed": "not-an-int"}),
        # unknown gkm field
        lambda s: s.__class__(**{**_fields(s), "gkm_field": "huge"}),
    ],
)
def test_validation_rejects(mutate):
    with pytest.raises(InvalidParameterError):
        mutate(smoke_scenario()).validate()


def _fields(scenario):
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "publishers": scenario.publishers,
        "phases": scenario.phases,
        "group": scenario.group,
        "gkm_field": scenario.gkm_field,
        "attribute_bits": scenario.attribute_bits,
        "capacity_slack": scenario.capacity_slack,
    }


def test_attribute_universes_must_be_disjoint():
    alpha = feed_publisher("alpha")
    # Give beta an attribute that collides with alpha's.
    beta = feed_publisher("beta")
    beta = beta.__class__(
        name=beta.name,
        attributes=alpha.attributes,
        policies=tuple(
            p.__class__(
                condition=p.condition.replace("beta_clr", "alpha_clr"),
                segments=p.segments,
                document=p.document,
            )
            for p in beta.policies
        ),
        documents=beta.documents,
    )
    scenario = LoadScenario(
        name="clash",
        seed=1,
        publishers=(alpha, beta),
        phases=(PhaseSpec(kind="join", count=2),),
    )
    with pytest.raises(InvalidParameterError):
        scenario.validate()


def test_attribute_range_must_fit_encoding():
    with pytest.raises(InvalidParameterError):
        AttributeSpec("a", 0, 300).validate(attribute_bits=8)
    with pytest.raises(InvalidParameterError):
        AttributeSpec("a", 7, 3).validate(attribute_bits=8)
    AttributeSpec("a", 0, 255).validate(attribute_bits=8)


def test_policy_must_reference_declared_things():
    pub = feed_publisher("alpha")
    bad = pub.__class__(
        name=pub.name,
        attributes=pub.attributes,
        policies=(pub.policies[0].__class__(
            condition="ghost_attr >= 1",
            segments=("body",),
            document="alpha-feed",
        ),),
        documents=pub.documents,
    )
    with pytest.raises(InvalidParameterError):
        bad.validate(attribute_bits=8)


def test_segment_order_survives_the_round_trip(tmp_path):
    from repro.load import DocumentSpec, PolicySpec, PublisherSpec

    publisher = PublisherSpec(
        name="ops",
        attributes=(AttributeSpec("ops_clr", 0, 99),),
        policies=(PolicySpec("ops_clr >= 1", ("zz", "aa"), "feed"),),
        documents=(
            # Deliberately unsorted: order is part of the spec.
            DocumentSpec(name="feed", segments=(("zz", "last"), ("aa", "first"))),
        ),
    )
    scenario = LoadScenario(
        name="ordered", seed=5, publishers=(publisher,),
        phases=(PhaseSpec(kind="join", count=1),),
    ).validate()
    path = str(tmp_path / "ordered.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario.to_payload(), handle)
    loaded = load_scenario_file(path)
    assert loaded == scenario
    assert loaded.publishers[0].documents[0].segment_names() == ("zz", "aa")


def test_hand_written_dict_segments_accepted():
    payload = smoke_scenario().to_payload()
    for publisher in payload["publishers"]:
        for document in publisher["documents"]:
            document["segments"] = dict(document["segments"])  # JSON object
    loaded = LoadScenario.from_payload(payload)
    assert loaded.validate() is not None


def test_duplicate_segments_rejected():
    from repro.load import DocumentSpec

    publisher = feed_publisher("alpha")
    doc = publisher.documents[0]
    dupe = publisher.__class__(
        name=publisher.name,
        attributes=publisher.attributes,
        policies=publisher.policies,
        documents=(DocumentSpec(
            name=doc.name, segments=doc.segments + (doc.segments[0],)
        ),),
    )
    with pytest.raises(InvalidParameterError, match="duplicate segments"):
        dupe.validate(attribute_bits=8)
