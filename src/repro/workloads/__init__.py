"""Workload builders for examples, tests and benchmarks.

* :mod:`repro.workloads.ehr` -- the paper's running healthcare scenario
  (Example 4): the EHR.xml document, the six role-based policies and a
  ready-to-run hospital with enrolled employees.
* :mod:`repro.workloads.generator` -- synthetic CSS rows matching the
  parameterisation of the evaluation section (user configurations with a
  given average condition count) and seeded attribute draws.
"""

from repro.workloads.ehr import (
    EHR_POLICIES,
    EHR_SUBDOCUMENT_TAGS,
    EHR_XML,
    HospitalScenario,
    build_ehr_document,
    build_ehr_policies,
    build_hospital,
)
from repro.workloads.generator import (
    make_css_rows,
    user_configuration_rows,
)

__all__ = [
    "EHR_XML",
    "EHR_POLICIES",
    "EHR_SUBDOCUMENT_TAGS",
    "HospitalScenario",
    "build_ehr_document",
    "build_ehr_policies",
    "build_hospital",
    "make_css_rows",
    "user_configuration_rows",
]
