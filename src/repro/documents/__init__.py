"""Document model, policy-driven segmentation and broadcast packaging.

A :class:`~repro.documents.model.Document` is an ordered set of named
subdocuments (Section V: "documents are divided in subdocuments based on
the access control policies").  :func:`~repro.documents.segmentation.segment`
groups subdocuments by policy configuration, and
:class:`~repro.documents.package.BroadcastPackage` is the self-contained
broadcast artifact: per-configuration key headers (ACV + nonce seed + the
public policy descriptions) and the encrypted subdocuments.

XML documents (the paper's EHR.xml scenario) are supported through
:func:`~repro.documents.model.document_from_xml`.
"""

from repro.documents.model import Document, Subdocument, document_from_xml
from repro.documents.package import (
    BroadcastPackage,
    ConfigHeader,
    EncryptedSubdocument,
)
from repro.documents.segmentation import SegmentPlan, segment

__all__ = [
    "Document",
    "Subdocument",
    "document_from_xml",
    "BroadcastPackage",
    "ConfigHeader",
    "EncryptedSubdocument",
    "SegmentPlan",
    "segment",
]
