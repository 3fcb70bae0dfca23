"""The cProfile window recorder: folding, nesting guard, privacy, merge.

Profiles are another telemetry surface, so the same hostility rules as
span logs apply: a stale or corrupted ``profile_*.json`` must degrade to
a ``skipped`` entry, never crash the merge, and a recorded profile must
contain function names only -- no argument values ever enter the file.
"""

import json
import threading

from repro.obs.profile import (
    ProfileRecorder,
    get_profiler,
    main,
    merge_profiles,
    profile_window,
    recorder_for,
    set_profiler,
    top_functions,
)


def _burn():
    return sum(i * i for i in range(2000))


def test_window_records_named_functions(tmp_path):
    recorder = ProfileRecorder(str(tmp_path / "profile_e.json"), "e")
    with recorder.window("join"):
        _burn()
    payload = recorder.payload()
    cut = payload["stages"]["join"]
    assert cut["windows"] == 1
    assert cut["wall_s"] > 0.0
    assert cut["min_s"] <= cut["max_s"]
    assert any("_burn" in key for key in cut["functions"])
    # Privacy posture: keys are basename:lineno:function -- nothing else.
    for key, (calls, tot, cum) in cut["functions"].items():
        assert key.count(":") >= 2
        assert calls >= 1 and tot >= 0.0 and cum >= 0.0


def test_windows_fold_across_calls(tmp_path):
    recorder = ProfileRecorder(str(tmp_path / "profile_e.json"), "e")
    for _ in range(3):
        with recorder.window("rekey"):
            _burn()
    assert recorder.payload()["stages"]["rekey"]["windows"] == 3


def test_nested_window_runs_unprofiled_and_is_counted(tmp_path):
    recorder = ProfileRecorder(str(tmp_path / "profile_e.json"), "e")
    with recorder.window("outer"):
        with recorder.window("inner"):  # cProfile cannot nest
            _burn()
    payload = recorder.payload()
    assert payload["skipped_windows"] == 1
    assert "inner" not in payload["stages"]
    assert "outer" in payload["stages"]


def test_concurrent_windows_one_wins(tmp_path):
    recorder = ProfileRecorder(str(tmp_path / "profile_e.json"), "e")
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        with recorder.window("spin"):
            _burn()

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    payload = recorder.payload()
    windows = payload["stages"].get("spin", {}).get("windows", 0)
    assert windows + payload["skipped_windows"] == 2


def test_write_is_atomic_and_skips_empty(tmp_path):
    recorder = ProfileRecorder(str(tmp_path / "d" / "profile_e.json"), "e")
    assert recorder.write() is None  # no windows -> no artifact
    assert not (tmp_path / "d").exists() or not list((tmp_path / "d").iterdir())
    with recorder.window("join"):
        _burn()
    path = recorder.write()
    assert path is not None
    payload = json.loads(open(path, encoding="utf-8").read())
    assert payload["entity"] == "e"
    assert "join" in payload["stages"]


def test_recorder_for_none_dir():
    assert recorder_for(None, "e") is None
    assert recorder_for("", "e") is None


def test_global_profiler_install_and_restore(tmp_path):
    recorder = recorder_for(str(tmp_path), "e")
    previous = set_profiler(recorder)
    try:
        assert get_profiler() is recorder
        with profile_window("join"):
            _burn()
    finally:
        assert set_profiler(previous) is recorder
    assert recorder.payload()["stages"]["join"]["windows"] == 1
    # With no recorder installed the window is a no-op.
    with profile_window("join"):
        _burn()
    assert recorder.payload()["stages"]["join"]["windows"] == 1


def test_merge_profiles_folds_and_skips_hostile(tmp_path):
    good = ProfileRecorder(str(tmp_path / "profile_a.json"), "a")
    with good.window("join"):
        _burn()
    good.write()
    other = ProfileRecorder(str(tmp_path / "profile_b.json"), "b")
    with other.window("join"):
        _burn()
    other.write()
    (tmp_path / "profile_broken.json").write_text("{not json")
    (tmp_path / "profile_shape.json").write_text('{"stages": 42}')
    (tmp_path / "profile_partial.json").write_text(
        json.dumps({"entity": "p", "stages": {"join": {"windows": "NaN?"}}})
    )
    merged = merge_profiles([
        str(tmp_path / name)
        for name in ("profile_a.json", "profile_b.json",
                     "profile_broken.json", "profile_shape.json",
                     "profile_partial.json")
    ])
    assert merged["stages"]["join"]["windows"] == 2
    # The partially-valid file contributes its entity but not the bad
    # stage; the unparseable ones contribute nothing at all.
    assert sorted(merged["entities"]) == ["a", "b", "p"]
    assert len(merged["skipped"]) == 3
    top = top_functions(merged, "join", 5)
    assert top and all(isinstance(row[0], str) for row in top)
    assert top_functions(merged, "absent", 5) == []


def test_cli_merges_and_checks(tmp_path, capsys):
    recorder = ProfileRecorder(str(tmp_path / "profile_e.json"), "e")
    with recorder.window("join"):
        _burn()
    recorder.write()
    assert main([str(tmp_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "stage join" in out
    assert "CHECK OK" in out


def test_cli_check_fails_on_empty(tmp_path, capsys):
    assert main([str(tmp_path), "--check"]) == 1
    assert "CHECK FAILED" in capsys.readouterr().out
