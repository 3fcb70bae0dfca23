"""repro: privacy-preserving policy-based content dissemination.

A from-scratch Python reproduction of Shang, Nabeel, Paci & Bertino,
"A Privacy-Preserving Approach to Policy-Based Content Dissemination"
(ICDE 2010 / CERIAS TR 2009-27):

* **ACV-BGKM** (:mod:`repro.gkm`) -- the paper's broadcast group key
  management scheme plus the baselines it is evaluated against;
* **OCBE** (:mod:`repro.ocbe`) -- oblivious commitment-based envelopes for
  =, !=, >=, <=, >, < predicates over Pedersen commitments;
* **groups** (:mod:`repro.groups`) -- Schnorr, elliptic-curve and the
  paper's genus-2 hyperelliptic Jacobian backends;
* **wire** (:mod:`repro.wire`) -- the versioned wire protocol: every
  inter-entity interaction as a serializable message, plus the session
  state machines that speak it;
* **system** (:mod:`repro.system`) -- IdP, IdMgr, Publisher and Subscriber
  as endpoints exchanging bytes over a routing transport;
* **net / store** (:mod:`repro.net`, :mod:`repro.store`) -- the asyncio
  socket runtime (broker + ``python -m repro.net.*`` entity servers) and
  crash-recoverable durable entity state (``--data-dir``);
* **load** (:mod:`repro.load`) -- the declarative load & churn engine:
  scenario specs, in-memory/TCP drivers, per-phase lockout/derivation/
  zero-unicast invariant checks, ``python -m repro.load``;
* **documents / policy / workloads / bench** -- segmentation, the policy
  language, the EHR scenario and the paper's evaluation harness (one
  driver per table/figure; system performance is measured by ``perf/``).

Quickstart::

    from repro.workloads import build_hospital

    hospital = build_hospital()
    package = hospital.publisher.publish(hospital.document)
    plaintexts = hospital.subscribers["carol"].receive(package)  # a doctor

See ``examples/`` for complete scenarios and DESIGN.md for the system map.
"""

import importlib

__version__ = "1.0.0"

# Lazy (PEP 562) exports, like :mod:`repro.net`: importing any one
# subsystem must not drag in the others.  This is a hard requirement for
# the federation tier -- a relay OS process imports ``repro.net.relay``
# and its keyless claim is pinned as an import boundary (it never loads
# crypto, GKM, policy or publisher modules), which only holds if the
# package root stays side-effect free.  ``from repro import X`` and
# ``repro.X`` still resolve exactly as before, on first touch.
_EXPORTS = {
    "BroadcastPackage": "repro.documents",
    "Document": "repro.documents",
    "Subdocument": "repro.documents",
    "document_from_xml": "repro.documents",
    "AcvBgkm": "repro.gkm",
    "AcvHeader": "repro.gkm",
    "BucketedAcvBgkm": "repro.gkm",
    "default_group": "repro.groups",
    "get_group": "repro.groups",
    "list_groups": "repro.groups",
    "OCBESetup": "repro.ocbe",
    "run_ocbe": "repro.ocbe",
    "AccessControlPolicy": "repro.policy",
    "AttributeCondition": "repro.policy",
    "PolicyConfiguration": "repro.policy",
    "parse_condition": "repro.policy",
    "parse_policy": "repro.policy",
    "DisseminationService": "repro.system",
    "IdentityManager": "repro.system",
    "IdentityManagerEndpoint": "repro.system",
    "IdentityProvider": "repro.system",
    "InMemoryTransport": "repro.system",
    "Publisher": "repro.system",
    "Subscriber": "repro.system",
    "SubscriberClient": "repro.system",
    "Transport": "repro.system",
    "register_all_attributes": "repro.system",
    "register_for_attribute": "repro.system",
    "run_until_idle": "repro.system",
    "decode_message": "repro.wire",
    "encode_message": "repro.wire",
}


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
    "__version__",
    "AcvBgkm",
    "AcvHeader",
    "BucketedAcvBgkm",
    "BroadcastPackage",
    "Document",
    "Subdocument",
    "document_from_xml",
    "default_group",
    "get_group",
    "list_groups",
    "OCBESetup",
    "run_ocbe",
    "AccessControlPolicy",
    "AttributeCondition",
    "PolicyConfiguration",
    "parse_condition",
    "parse_policy",
    "IdentityManager",
    "IdentityProvider",
    "InMemoryTransport",
    "Transport",
    "Publisher",
    "Subscriber",
    "DisseminationService",
    "SubscriberClient",
    "IdentityManagerEndpoint",
    "run_until_idle",
    "encode_message",
    "decode_message",
    "register_all_attributes",
    "register_for_attribute",
]
