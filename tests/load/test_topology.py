"""The relay-topology knob: spec, JSON round trip, and deployment rules.

The topology is declarative -- ``RelaySpec`` rows in a ``LoadScenario``
-- and *order is the contract*: a relay's upstream must appear earlier
in the list, so any well-formed spec is a tree a supervisor can spawn in
declaration order.  These tests pin that contract from every entrance:
the dataclass validator, the file round trip and the engine's driver
gate.
"""

import pytest

from dataclasses import replace

from repro.errors import InvalidParameterError, LoadScenarioError
from repro.load import (
    LoadEngine,
    RelaySpec,
    load_scenario_file,
    save_scenario_file,
    smoke_scenario,
    with_relays,
)
from repro.load.scenarios import builtin_scenario


class TestRelaySpec:
    def test_with_relays_builds_a_chain(self):
        scenario = with_relays(smoke_scenario(), 3)
        assert scenario.name == "smoke-relay3"
        assert [r.name for r in scenario.topology] == [
            "relay1", "relay2", "relay3",
        ]
        assert [r.upstream for r in scenario.topology] == [
            None, "relay1", "relay2",
        ]
        # Everything else is untouched: same population, same phases.
        base = smoke_scenario()
        assert scenario.publishers == base.publishers
        assert scenario.phases == base.phases
        assert scenario.seed == base.seed

    def test_with_relays_rejects_zero_depth(self):
        with pytest.raises(InvalidParameterError):
            with_relays(smoke_scenario(), 0)

    def test_builtin_relay_scenarios_resolve(self):
        assert len(builtin_scenario("smoke-relay").topology) == 2
        assert len(builtin_scenario("churn-relay").topology) == 3

    def test_duplicate_relay_names_rejected(self):
        scenario = replace(
            smoke_scenario(),
            topology=(RelaySpec("r1"), RelaySpec("r1", upstream="r1")),
        )
        with pytest.raises(InvalidParameterError, match="duplicate"):
            scenario.validate()

    def test_upstream_must_be_an_earlier_relay(self):
        # Forward reference: r1 names r2 which is declared later.
        scenario = replace(
            smoke_scenario(),
            topology=(RelaySpec("r1", upstream="r2"), RelaySpec("r2")),
        )
        with pytest.raises(InvalidParameterError, match="earlier"):
            scenario.validate()
        # Unknown reference is the same violation.
        scenario = replace(
            smoke_scenario(), topology=(RelaySpec("r1", upstream="ghost"),)
        )
        with pytest.raises(InvalidParameterError):
            scenario.validate()

    def test_empty_relay_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            RelaySpec("").validate()

    def test_json_round_trip_preserves_topology(self, tmp_path):
        scenario = with_relays(smoke_scenario(), 2)
        path = str(tmp_path / "scenario.json")
        save_scenario_file(scenario, path)
        loaded = load_scenario_file(path)
        assert loaded == scenario
        assert loaded.topology == scenario.topology

    def test_payload_without_topology_means_single_broker(self):
        scenario = smoke_scenario()
        payload = scenario.to_payload()
        assert payload["topology"] == []
        assert scenario.topology == ()


class TestEngineGate:
    def test_memory_driver_refuses_a_topology(self, tmp_path):
        scenario = with_relays(smoke_scenario(), 2)
        with pytest.raises(LoadScenarioError, match="tcp"):
            LoadEngine(scenario, driver="memory", data_root=str(tmp_path))
