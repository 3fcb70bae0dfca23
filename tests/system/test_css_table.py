"""Tests for the CSS table (the publisher's Table T / paper Table I)."""

import pytest

from repro.errors import GKMError
from repro.system.css import CssTable


@pytest.fixture
def table():
    t = CssTable()
    # Mirror the visible part of the paper's Table I.
    t.set("pn-0012", "role = doc", b"\x86\x57\x10")
    t.set("pn-0012", "role = nur", b"\x96\x87\x50")
    t.set("pn-0829", "level >= 59", b"\x47\x78\x50")
    t.set("pn-0829", "YoS >= 5", b"\x56\x45\x60")
    t.set("pn-0829", "YoS < 5", b"\x87\x53\x40")
    t.set("pn-1492", "level >= 59", b"\x11\x10\x90")
    t.set("pn-1492", "YoS >= 5", b"\x45\x78\x00")
    t.set("pn-1492", "YoS < 5", b"\x10\x49\x10")
    t.set("pn-1492", "role = doc", b"\x13\x01\x10")
    t.set("pn-1492", "role = nur", b"\x60\x98\x70")
    return t


class TestQueries:
    def test_select_single_condition(self, table):
        """The paper's SELECT * FROM T WHERE 'role = doc' <> NULL."""
        assert table.rows_for_policies([["role = doc"]]) == [[
            (table.get("pn-0012", "role = doc"),),
            (table.get("pn-1492", "role = doc"),),
        ]]

    def test_select_conjunction(self, table):
        """acp4's conjunction: only pn-1492 may satisfy both conditions."""
        [bucket] = table.rows_for_policies([["role = nur", "level >= 59"]])
        assert bucket == [(table.get("pn-1492", "role = nur"),
                           table.get("pn-1492", "level >= 59"))]

    def test_css_row_ordering(self, table):
        [[row]] = table.rows_for_policies([["role = nur", "level >= 59"]])
        assert row == (b"\x60\x98\x70", b"\x11\x10\x90")

    def test_get_missing_cell(self, table):
        with pytest.raises(GKMError):
            table.get("pn-0012", "level >= 59")
        with pytest.raises(GKMError):
            table.get("pn-9999", "role = doc")

    def test_has(self, table):
        assert table.has("pn-0012", "role = doc")
        assert not table.has("pn-0012", "YoS >= 5")

    def test_counts(self, table):
        assert len(table) == 3
        assert table.cell_count() == 10

    def test_condition_keys(self, table):
        assert "YoS < 5" in table.condition_keys()
        assert len(table.condition_keys()) == 5


class TestMutation:
    def test_overwrite_is_credential_update(self, table):
        table.set("pn-0012", "role = doc", b"new")
        assert table.get("pn-0012", "role = doc") == b"new"

    def test_remove_cell(self, table):
        assert table.remove_cell("pn-0829", "YoS >= 5")
        assert not table.has("pn-0829", "YoS >= 5")
        assert not table.remove_cell("pn-0829", "YoS >= 5")  # idempotent

    def test_remove_last_cell_drops_row(self, table):
        for key in ("level >= 59", "YoS >= 5", "YoS < 5"):
            table.remove_cell("pn-0829", key)
        assert "pn-0829" not in table.pseudonyms()

    def test_remove_row(self, table):
        assert table.remove_row("pn-1492")
        assert not table.remove_row("pn-1492")
        assert len(table) == 2


class TestRendering:
    def test_render_shape(self, table):
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("nym")
        assert len(lines) == 2 + 3  # header + rule + 3 rows
        assert "pn-0829" in text
        assert "--" in text  # absent cells

    def test_render_with_explicit_columns(self, table):
        text = table.render(["role = doc", "role = nur"])
        assert "YoS" not in text
