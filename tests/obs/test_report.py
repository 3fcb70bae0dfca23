"""``python -m repro.obs.report``: validation, summary, gate."""

import pytest

from repro.obs.report import discover, load_spans, main, summarize
from repro.obs.trace import SpanWriter, new_trace_id


def _write_world(tmp_path):
    """Three entities logging spans; one trace crosses all three."""
    trace = new_trace_id()
    broker = SpanWriter(str(tmp_path / "broker" / "obs.jsonl"), "broker")
    relay = SpanWriter(str(tmp_path / "relay" / "obs.jsonl"), "relay:r1")
    sub = SpanWriter(str(tmp_path / "sub" / "obs.jsonl"), "pn-0001")
    broker.span("deliver", trace=trace, sender="pub", receiver="pn-0001")
    relay.span("deliver", trace=trace, sender="pub", receiver="pn-0001")
    sub.span("handle", trace=trace, sender="pub")
    sub.span("handle", trace=new_trace_id(), sender="idmgr")
    broker.span("connect", peer="pn-0001")  # untraced
    for writer in (broker, relay, sub):
        writer.close()
    return trace


def test_discover_finds_obs_files(tmp_path):
    _write_world(tmp_path)
    files = discover([str(tmp_path)])
    assert len(files) == 3
    assert all(path.endswith("obs.jsonl") for path in files)
    # A direct file path is passed through; a missing one is skipped.
    assert discover([files[0]]) == [files[0]]
    assert discover([str(tmp_path / "nope")]) == []


def test_load_and_summarize(tmp_path):
    trace = _write_world(tmp_path)
    spans = []
    for path in discover([str(tmp_path)]):
        file_spans, bad = load_spans(path)
        assert bad == []
        spans.extend(file_spans)
    summary = summarize(spans)
    assert summary["spans"] == 5
    assert len(summary["traces"]) == 2
    assert summary["cross_process_traces"] == 1
    crossing = [row for row in summary["traces"] if row["trace"] == trace.hex()]
    assert crossing[0]["entities"] == ["broker", "pn-0001", "relay:r1"]
    assert crossing[0]["spans"] == 3


@pytest.mark.parametrize("line,reason", [
    ("not json {", "bad JSON"),
    ('"a string"', "not a JSON object"),
    ('{"entity": "e", "event": "x", "trace": ""}', "'ts'"),
    ('{"ts": true, "entity": "e", "event": "x", "trace": ""}', "'ts'"),
    ('{"ts": 1.0, "event": "x", "trace": ""}', "'entity'"),
    ('{"ts": 1.0, "entity": "", "event": "x", "trace": ""}', "'entity'"),
    ('{"ts": 1.0, "entity": "e", "trace": ""}', "'event'"),
    ('{"ts": 1.0, "entity": "e", "event": "x"}', "'trace'"),
    ('{"ts": 1.0, "entity": "e", "event": "x", "trace": "abcd"}', "hex digits"),
    ('{"ts": 1.0, "entity": "e", "event": "x", "trace": "Z" }', "hex"),
], ids=[
    "bad-json", "not-object", "no-ts", "bool-ts", "no-entity",
    "empty-entity", "no-event", "no-trace", "short-trace", "non-hex",
])
def test_malformed_lines_reported(tmp_path, line, reason):
    path = tmp_path / "obs.jsonl"
    path.write_text(line + "\n")
    spans, bad = load_spans(str(path))
    assert spans == []
    assert len(bad) == 1
    assert reason in bad[0].reason


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "obs.jsonl"
    path.write_text(
        '\n{"ts": 1.0, "entity": "e", "event": "x", "trace": ""}\n\n'
    )
    spans, bad = load_spans(str(path))
    assert len(spans) == 1 and bad == []


# -- the CLI -----------------------------------------------------------------


def test_main_summary_and_check_ok(tmp_path, capsys):
    _write_world(tmp_path)
    assert main([str(tmp_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "3 span file(s), 5 span(s), 2 trace(s) (1 cross-process)" in out
    assert "CHECK OK" in out


def test_main_check_fails_on_malformed(tmp_path, capsys):
    _write_world(tmp_path)
    (tmp_path / "broker" / "obs.jsonl").open("a").write("garbage\n")
    assert main([str(tmp_path), "--check"]) == 1
    out = capsys.readouterr().out
    assert "MALFORMED" in out
    assert "CHECK FAILED" in out


def test_main_check_fails_on_no_spans(tmp_path, capsys):
    assert main([str(tmp_path), "--check"]) == 1
    assert "no spans" in capsys.readouterr().out


def test_main_without_check_tolerates_malformed(tmp_path):
    (tmp_path / "obs.jsonl").write_text("garbage\n")
    assert main([str(tmp_path)]) == 0


def test_module_entrypoint_runs(tmp_path):
    import subprocess
    import sys

    _write_world(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "repro.obs.report", str(tmp_path), "--check"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "CHECK OK" in result.stdout
