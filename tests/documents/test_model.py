"""Tests for the document model and XML segmentation."""

import pytest

from repro.documents.model import REST, Document, Subdocument, document_from_xml
from repro.errors import DocumentError


class TestSubdocument:
    def test_basic(self):
        sub = Subdocument("a", b"content")
        assert sub.size == 7

    def test_empty_name_rejected(self):
        with pytest.raises(DocumentError):
            Subdocument("", b"x")


class TestDocument:
    def test_of_preserves_order(self):
        doc = Document.of("d", {"b": b"2", "a": b"1"})
        assert doc.subdocument_names() == ["b", "a"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(DocumentError):
            Document("d", (Subdocument("a", b"1"), Subdocument("a", b"2")))

    def test_get(self):
        doc = Document.of("d", {"a": b"1"})
        assert doc.get("a").content == b"1"
        with pytest.raises(DocumentError):
            doc.get("missing")

    def test_sizes_and_iteration(self):
        doc = Document.of("d", {"a": b"12", "b": b"345"})
        assert len(doc) == 2
        assert [s.name for s in doc] == ["a", "b"]


class TestXmlSegmentation:
    XML = "<root><a>alpha</a><b><c>inner</c></b><d>delta</d></root>"

    def test_marked_tags_extracted(self):
        doc = document_from_xml("doc", self.XML, ["a", "b"])
        assert doc.subdocument_names() == ["a", "b", REST]
        assert b"alpha" in doc.get("a").content
        assert b"inner" in doc.get("b").content

    def test_rest_excludes_marked(self):
        doc = document_from_xml("doc", self.XML, ["a", "b"])
        rest = doc.get(REST).content
        assert b"alpha" not in rest
        assert b"inner" not in rest
        assert b"delta" in rest

    def test_no_rest_option(self):
        doc = document_from_xml("doc", self.XML, ["a"], include_rest=False)
        assert doc.subdocument_names() == ["a"]

    def test_nested_tag_found(self):
        doc = document_from_xml("doc", self.XML, ["c"])
        assert b"inner" in doc.get("c").content

    def test_missing_tag_rejected(self):
        with pytest.raises(DocumentError):
            document_from_xml("doc", self.XML, ["zzz"])

    def test_invalid_xml_rejected(self):
        with pytest.raises(DocumentError):
            document_from_xml("doc", "<broken", ["a"])

    def test_root_tag_cannot_be_pruned(self):
        with pytest.raises(DocumentError):
            document_from_xml("doc", self.XML, ["root"])

    def test_doctest_example(self):
        doc = document_from_xml("d", "<a><b>x</b><c>y</c></a>", ["b"])
        assert doc.subdocument_names() == ["b", "_rest"]
