"""Tests for policy configurations and dominance -- including the exact
configuration algebra of the paper's Example 4."""


from repro.policy.configuration import (
    PolicyConfiguration,
    build_configurations,
    dominance_order,
)
from repro.workloads.ehr import EHR_SUBDOCUMENT_TAGS, build_ehr_policies


class TestBasics:
    def test_empty(self):
        empty = PolicyConfiguration.of([])
        assert empty.is_empty
        assert len(empty) == 0
        assert empty.describe() == "{}"

    def test_of_dedupes(self, ):
        acps = build_ehr_policies()
        config = PolicyConfiguration.of([acps[0], acps[0]])
        assert len(config) == 1

    def test_condition_keys_union(self):
        acps = build_ehr_policies()
        config = PolicyConfiguration.of([acps[2], acps[3]])  # doc + nurse policy
        assert "role = doc" in config.condition_keys()
        assert "role = nur" in config.condition_keys()
        assert "level >= 59" in config.condition_keys()

    def test_sorted_policies_deterministic(self):
        acps = build_ehr_policies()
        c1 = PolicyConfiguration.of([acps[0], acps[3]])
        c2 = PolicyConfiguration.of([acps[3], acps[0]])
        assert c1.sorted_policies() == c2.sorted_policies()
        assert list(c1) == c1.sorted_policies()


class TestDominance:
    def test_subset_dominates(self):
        acps = build_ehr_policies()
        small = PolicyConfiguration.of([acps[0]])
        large = PolicyConfiguration.of([acps[0], acps[1]])
        assert small.dominates(large)
        assert not large.dominates(small)

    def test_reflexive(self):
        acps = build_ehr_policies()
        c = PolicyConfiguration.of([acps[0]])
        assert c.dominates(c)

    def test_empty_dominates_everything(self):
        acps = build_ehr_policies()
        empty = PolicyConfiguration.of([])
        c = PolicyConfiguration.of([acps[0]])
        assert empty.dominates(c)

    def test_dominance_order_strict_pairs(self):
        acps = build_ehr_policies()
        a = PolicyConfiguration.of([acps[0]])
        b = PolicyConfiguration.of([acps[0], acps[1]])
        c = PolicyConfiguration.of([acps[2]])
        pairs = dominance_order([a, b, c])
        assert (a, b) in pairs
        assert (b, a) not in pairs
        assert all(x.policies != y.policies for x, y in pairs)


class TestExample4:
    """The paper's Pc1..Pc6 mapping, verbatim."""

    def test_configurations_match_paper(self):
        acps = build_ehr_policies()
        acp1, acp2, acp3, acp4, acp5, acp6 = acps
        subdocs = list(EHR_SUBDOCUMENT_TAGS) + ["_rest"]
        by_sub = build_configurations(subdocs, acps)

        assert by_sub["ContactInfo"].policies == {acp1, acp4, acp5}     # Pc1
        assert by_sub["BillingInfo"].policies == {acp2, acp6}           # Pc2
        assert by_sub["Medication"].policies == {acp3, acp4, acp6}      # Pc3
        assert by_sub["PhysicalExams"].policies == {acp3, acp4}         # Pc4
        assert by_sub["LabRecords"].policies == {acp3, acp4, acp5}      # Pc5
        assert by_sub["_rest"].is_empty                                 # Pc6

    def test_pc4_dominates_pc3_and_pc5(self):
        """{acp3, acp4} is a subset of {acp3, acp4, acp6} and of
        {acp3, acp4, acp5}: anyone reading PhysicalExams can read
        Medication and LabRecords (Section VIII-A)."""
        acps = build_ehr_policies()
        subdocs = list(EHR_SUBDOCUMENT_TAGS)
        by_sub = build_configurations(subdocs, acps)
        pc3 = by_sub["Medication"]
        pc4 = by_sub["PhysicalExams"]
        pc5 = by_sub["LabRecords"]
        assert pc4.dominates(pc3)
        assert pc4.dominates(pc5)
        assert not pc3.dominates(pc4)

    def test_shared_configuration_instances_equal(self):
        """PhysicalExams and Plan share Pc4 (same key in the paper)."""
        acps = build_ehr_policies()
        by_sub = build_configurations(list(EHR_SUBDOCUMENT_TAGS), acps)
        assert by_sub["PhysicalExams"] == by_sub["Plan"]
