"""Tests for policy-driven segmentation plans."""

import pytest

from repro.documents.model import Document
from repro.documents.segmentation import segment
from repro.errors import DocumentError
from repro.policy.acp import parse_policy
from repro.workloads.ehr import build_ehr_document, build_ehr_policies


def doc():
    return Document.of(
        "d", {"s1": b"1", "s2": b"2", "s3": b"3", "s4": b"4"}
    )


class TestSegment:
    def test_grouping_by_configuration(self):
        policies = [
            parse_policy("a = 1", ["s1", "s2"], "d"),
            parse_policy("b = 2", ["s3"], "d"),
        ]
        plan = segment(doc(), policies)
        ids = {name: cid for cid, _, names in plan.groups for name in names}
        assert ids["s1"] == ids["s2"]          # same configuration
        assert ids["s3"] != ids["s1"]
        assert ids["s4"] == "pc0"              # empty configuration

    def test_empty_config_last(self):
        policies = [parse_policy("a = 1", ["s1"], "d")]
        plan = segment(doc(), policies)
        assert plan.groups[-1][0] == "pc0"
        assert plan.groups[-1][1].is_empty

    def test_other_documents_ignored(self):
        policies = [parse_policy("a = 1", ["other"], "not-d")]
        plan = segment(doc(), policies)
        assert all(config.is_empty for _, config, _ in plan.groups)

    def test_unknown_subdocument_rejected(self):
        policies = [parse_policy("a = 1", ["ghost"], "d")]
        with pytest.raises(DocumentError):
            segment(doc(), policies)

    def test_non_empty_groups(self):
        policies = [parse_policy("a = 1", ["s1"], "d")]
        plan = segment(doc(), policies)
        non_empty = [g for g in plan.groups if not g[1].is_empty]
        assert len(non_empty) == 1
        assert non_empty[0][2] == ("s1",)


class TestEhrPlan:
    """The Example-4 plan: 5 distinct non-empty configurations + Pc6."""

    def test_group_count(self):
        plan = segment(build_ehr_document(), build_ehr_policies())
        non_empty = [g for g in plan.groups if not g[1].is_empty]
        assert len(non_empty) == 5
        assert len(plan.groups) == 6

    def test_physical_exams_and_plan_share_key_group(self):
        plan = segment(build_ehr_document(), build_ehr_policies())
        ids = {name: cid for cid, _, names in plan.groups for name in names}
        assert ids["PhysicalExams"] == ids["Plan"]

    def test_rest_is_empty_config(self):
        plan = segment(build_ehr_document(), build_ehr_policies())
        [(rest_id, rest_config)] = [
            (cid, config) for cid, config, names in plan.groups if "_rest" in names
        ]
        assert rest_id == "pc0"
        assert rest_config.is_empty
