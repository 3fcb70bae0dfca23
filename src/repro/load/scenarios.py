"""Builtin scenarios: the CI smoke run and the nightly churn run.

Both follow one shape -- N publishers with disjoint attribute universes,
each broadcasting a two-segment feed gated by a base and a VIP
clearance condition -- so a member's entitlement varies with its drawn
clearance (some derive both segments, some one, some none), which gives
the derivation invariant real negative cases, not just happy paths.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import InvalidParameterError
from repro.load.spec import (
    AttributeSpec,
    DocumentSpec,
    LoadScenario,
    PhaseSpec,
    PolicySpec,
    PublisherSpec,
    RelaySpec,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "bucketed",
    "builtin_scenario",
    "churn_scenario",
    "feed_publisher",
    "smoke_scenario",
    "warm_churn_scenario",
    "with_relays",
]


def feed_publisher(name: str) -> PublisherSpec:
    """One "feed" publisher over its own ``<name>_clr`` clearance attribute.

    Clearances are drawn uniformly from [0, 99]: >= 40 unlocks the feed
    body, >= 80 additionally the VIP brief, < 40 nothing at all.
    """
    attribute = "%s_clr" % name
    document = "%s-feed" % name
    return PublisherSpec(
        name=name,
        attributes=(AttributeSpec(attribute, 0, 99),),
        policies=(
            PolicySpec("%s >= 40" % attribute, ("body",), document),
            PolicySpec("%s >= 80" % attribute, ("vip",), document),
        ),
        documents=(
            DocumentSpec(
                name=document,
                segments=(
                    ("body", "the %s bulletin body" % name),
                    ("vip", "the %s vip brief" % name),
                ),
            ),
        ),
    )


def smoke_scenario(seed: int = 0x10AD) -> LoadScenario:
    """CI-smoke scale: two publishers, ~14 members, every phase kind.

    Small enough for the fast tier and the per-push CI step, yet it
    exercises arrival, a revoke storm, kill-and-recover flapping and
    pure fan-out -- with invariants asserted after each.
    """
    return LoadScenario(
        name="smoke",
        seed=seed,
        publishers=(feed_publisher("alpha"), feed_publisher("beta")),
        phases=(
            PhaseSpec(kind="join", count=10),
            PhaseSpec(kind="revoke", count=2),
            PhaseSpec(kind="flap", count=2),
            PhaseSpec(kind="join", count=4),
            PhaseSpec(kind="broadcast", repeat=2),
        ),
    ).validate()


def churn_scenario(
    subscribers: int = 64,
    publishers: int = 2,
    seed: int = 0xC41218,
) -> LoadScenario:
    """The nightly churn run: a sustained arrive/revoke/flap schedule.

    Defaults give 64 initial subscribers across 2 publishers and five
    churn phases (revoke storm, replacement arrivals, a flap wave,
    a second storm) before a fan-out burst -- the smallest shape that
    answers "does rekeying stay broadcast-only under sustained
    membership change", and the baseline for scaling the counts up.
    """
    names = ("alpha", "beta", "gamma", "delta", "epsilon")[:publishers]
    storm = max(subscribers // 8, 1)
    flap = max(subscribers // 10, 1)
    return LoadScenario(
        name="churn",
        seed=seed,
        publishers=tuple(feed_publisher(name) for name in names),
        phases=(
            PhaseSpec(kind="join", count=subscribers),
            PhaseSpec(kind="revoke", count=storm),
            PhaseSpec(kind="join", count=storm),
            PhaseSpec(kind="flap", count=flap),
            PhaseSpec(kind="revoke", count=storm),
            PhaseSpec(kind="broadcast", repeat=2),
        ),
    ).validate()


def warm_churn_scenario(
    subscribers: int = 12,
    waves: int = 4,
    seed: int = 0x3A11,
) -> LoadScenario:
    """Joins and broadcasts interleaving at high rate on a *warm* publisher.

    After the initial wave every later join lands on a publisher whose
    ACV build cache already carries the configuration's factorization, so
    the rekey each broadcast forces takes the incremental O(m^2) update
    path (``acv.update``) instead of a fresh elimination -- the workload
    the rank-1 join maintenance exists for.  A closing revoke asserts the
    revoke's row removal (dense) or re-solve (bucketed) still locks
    members out afterwards.

    Run it again with the build cache's lookups disabled for the
    from-scratch baseline: same seed and phases, so delivered plaintexts
    must match exactly.
    """
    if waves < 1:
        raise InvalidParameterError("warm churn needs at least one wave")
    phases = [
        PhaseSpec(kind="join", count=subscribers),
        PhaseSpec(kind="broadcast"),
    ]
    for _ in range(waves):
        phases.append(PhaseSpec(kind="join", count=2))
        phases.append(PhaseSpec(kind="broadcast", repeat=2))
    phases.append(PhaseSpec(kind="revoke", count=max(subscribers // 8, 1)))
    phases.append(PhaseSpec(kind="broadcast"))
    return LoadScenario(
        name="warm-churn",
        seed=seed,
        publishers=(feed_publisher("alpha"), feed_publisher("beta")),
        phases=tuple(phases),
    ).validate()


def bucketed(scenario: LoadScenario, bucket_size: int = 0) -> LoadScenario:
    """The same experiment under the bucketed publish-path strategy.

    Only the GKM strategy knob changes (and the name gains a
    ``-bucketed`` suffix): population, seed, phases and documents stay
    identical, which is what lets the differential harness assert
    byte-identical delivered plaintexts against the dense run.
    """
    return replace(
        scenario,
        name="%s-bucketed" % scenario.name,
        gkm="bucketed",
        gkm_bucket_size=bucket_size,
    ).validate()


def with_relays(scenario: LoadScenario, depth: int) -> LoadScenario:
    """The same experiment behind a ``depth``-deep relay chain.

    ``relay1`` hangs off the root broker, ``relay2`` off ``relay1`` and
    so on.  A chain has a single leaf, so every subscriber attaches at
    the deepest relay and every frame rides the full depth -- the worst
    case the per-hop invariants and the fan-out benchmark exist to
    stress.  Only the topology knob (and a ``-relayN`` name suffix)
    changes: same seed, population and phases, so delivered plaintexts
    must be byte-identical to the single-broker run.  TCP driver only.
    """
    if depth < 1:
        raise InvalidParameterError("relay depth must be >= 1")
    relays = []
    for index in range(depth):
        relays.append(
            RelaySpec(
                name="relay%d" % (index + 1),
                upstream=None if index == 0 else "relay%d" % index,
            )
        )
    return replace(
        scenario,
        name="%s-relay%d" % (scenario.name, depth),
        topology=tuple(relays),
    ).validate()


BUILTIN_SCENARIOS = {
    "smoke": smoke_scenario,
    "churn": churn_scenario,
    "warm-churn": warm_churn_scenario,
    "smoke-bucketed": lambda: bucketed(smoke_scenario()),
    "churn-bucketed": lambda: bucketed(churn_scenario()),
    "warm-churn-bucketed": lambda: bucketed(warm_churn_scenario()),
    # The federation smokes: the same populations behind a relay chain
    # (TCP driver required -- relays are real OS processes).
    "smoke-relay": lambda: with_relays(smoke_scenario(), 2),
    "churn-relay": lambda: with_relays(churn_scenario(), 3),
}


def builtin_scenario(name: str) -> LoadScenario:
    """Look up a builtin by name (:data:`BUILTIN_SCENARIOS`)."""
    factory = BUILTIN_SCENARIOS.get(name)
    if factory is None:
        raise InvalidParameterError(
            "no builtin scenario %r (have %s)"
            % (name, sorted(BUILTIN_SCENARIOS))
        )
    return factory()
