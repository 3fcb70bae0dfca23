"""repro.load: the declarative load & churn engine.

The ROADMAP's "what happens at N=500 with 5% churn/min" subsystem: a
:class:`~repro.load.spec.LoadScenario` (JSON-serializable dataclasses)
describes publishers, attribute mixes and a phase script; a
:class:`~repro.load.engine.LoadEngine` runs it over the in-memory or
the TCP driver; :mod:`~repro.load.invariants` asserts lockout,
derivation and zero-unicast after every phase; and the
:class:`~repro.load.metrics.LoadReport` carries the per-phase walls,
byte accounting and attribution (``--report PATH`` writes it as JSON).

Run one from the shell::

    python -m repro.load --builtin smoke --driver memory

See DESIGN.md ("Load & churn engine") for the scenario schema.
"""

from repro.load.engine import LoadEngine, run_scenario
from repro.load.invariants import (
    REGISTRATION_KINDS,
    check_bucket_layout,
    check_bucketed_package,
    check_exact_delivery,
    check_members,
    check_rekey_window,
    check_relay_hops,
    expected_plaintexts,
)
from repro.load.metrics import LoadReport, MetricsCollector, PhaseMetrics
from repro.load.scenarios import (
    BUILTIN_SCENARIOS,
    bucketed,
    builtin_scenario,
    churn_scenario,
    feed_publisher,
    smoke_scenario,
    with_relays,
)
from repro.load.spec import (
    AttributeSpec,
    DocumentSpec,
    LoadScenario,
    PhaseSpec,
    PolicySpec,
    PublisherSpec,
    RelaySpec,
    churn_phases,
    load_scenario_file,
    save_scenario_file,
)

__all__ = [
    "AttributeSpec",
    "BUILTIN_SCENARIOS",
    "DocumentSpec",
    "LoadEngine",
    "LoadReport",
    "LoadScenario",
    "MetricsCollector",
    "PhaseMetrics",
    "PhaseSpec",
    "PolicySpec",
    "PublisherSpec",
    "REGISTRATION_KINDS",
    "RelaySpec",
    "bucketed",
    "builtin_scenario",
    "check_bucket_layout",
    "check_bucketed_package",
    "check_exact_delivery",
    "check_members",
    "check_rekey_window",
    "check_relay_hops",
    "churn_phases",
    "churn_scenario",
    "expected_plaintexts",
    "feed_publisher",
    "load_scenario_file",
    "run_scenario",
    "save_scenario_file",
    "smoke_scenario",
    "with_relays",
]
