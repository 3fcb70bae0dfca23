"""Documents and subdocuments.

The unit of encryption is the subdocument: a named byte payload within a
document.  The paper's running example marks subdocuments with XML tags
inside ``EHR.xml``; :func:`document_from_xml` reproduces that segmentation
by extracting the subtree of each marked tag (everything not captured by a
marked tag becomes the residual ``_rest`` subdocument -- the "Other stuff"
of Example 4).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import DocumentError

__all__ = ["Subdocument", "Document", "document_from_xml", "REST"]

#: Name of the residual subdocument (content no marked tag captured).
REST = "_rest"


@dataclass(frozen=True)
class Subdocument:
    """A named content portion of a document."""

    name: str
    content: bytes

    def __post_init__(self) -> None:
        if not self.name:
            raise DocumentError("subdocument needs a non-empty name")

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.content)


@dataclass(frozen=True)
class Document:
    """An ordered collection of uniquely-named subdocuments."""

    name: str
    subdocuments: Tuple[Subdocument, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.subdocuments]
        if len(set(names)) != len(names):
            raise DocumentError("duplicate subdocument names in %r" % self.name)

    @classmethod
    def of(cls, name: str, parts: Dict[str, bytes]) -> "Document":
        """Build from a name->content mapping (insertion order preserved)."""
        return cls(
            name=name,
            subdocuments=tuple(
                Subdocument(sub_name, content) for sub_name, content in parts.items()
            ),
        )

    def subdocument_names(self) -> List[str]:
        """Names in document order."""
        return [s.name for s in self.subdocuments]

    def get(self, name: str) -> Subdocument:
        """Look up a subdocument by name."""
        for sub in self.subdocuments:
            if sub.name == name:
                return sub
        raise DocumentError("no subdocument %r in %r" % (name, self.name))

    def __iter__(self):
        return iter(self.subdocuments)

    def __len__(self) -> int:
        return len(self.subdocuments)


def document_from_xml(
    name: str,
    xml_text: str,
    marked_tags: Sequence[str],
    include_rest: bool = True,
) -> Document:
    """Segment an XML document along ``marked_tags``.

    Each marked tag contributes one subdocument holding the serialized
    subtree (first occurrence anywhere in the tree).  The remaining
    skeleton -- the document with marked subtrees pruned -- becomes the
    ``_rest`` subdocument when ``include_rest`` is set.

    >>> doc = document_from_xml("d", "<a><b>x</b><c>y</c></a>", ["b"])
    >>> doc.subdocument_names()
    ['b', '_rest']
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise DocumentError("invalid XML: %s" % exc) from exc

    parts: Dict[str, bytes] = {}
    for tag in marked_tags:
        element = root if root.tag == tag else root.find(".//%s" % tag)
        if element is None:
            raise DocumentError("marked tag %r not found" % tag)
        parts[tag] = ET.tostring(element, encoding="utf-8")

    if include_rest:
        pruned = ET.fromstring(xml_text)
        for tag in marked_tags:
            if pruned.tag == tag:
                raise DocumentError("cannot prune the document root %r" % tag)
            parent = pruned.find(".//%s/.." % tag)
            while parent is not None:
                child = parent.find(tag)
                if child is not None:
                    parent.remove(child)
                parent = pruned.find(".//%s/.." % tag)
        parts[REST] = ET.tostring(pruned, encoding="utf-8")

    return Document.of(name, parts)
