"""The production reach map's checker, on a synthetic package.

Each case plants one regression the checker must catch (or must not
report): an unlisted unreached definition, a stale allowlist line, a
definition only a child process reaches, a decorated definition.
"""

import os
import subprocess
import sys
import textwrap

from tests.tools.reach_map import (
    TRACER,
    check,
    definitions,
    read_allowlist,
    read_traces,
)

SOURCE = textwrap.dedent(
    """\
    import functools


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)

        return wrapper


    def parent():
        return 1


    def child():
        return 2


    class Widget:
        def used(self):
            return 3

        def unused(self):
            return 4


    @deco
    def decorated():
        return 5
    """
)


def _package(tmp_path):
    root = tmp_path / "src"
    package = root / "synth"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Synthetic."""\n')
    (package / "mod.py").write_text(SOURCE)
    return str(root), str(package)


def _defs(package):
    return {d.key: d for d in definitions(package)}


def _trace(tmp_path, spots, name="trace-1.txt"):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir(exist_ok=True)
    with open(trace_dir / name, "a", encoding="utf-8") as handle:
        for path, line in spots:
            handle.write("%s\t%d\n" % (path, line))
    return read_traces(str(trace_dir))


def _allowlist(tmp_path, text):
    path = tmp_path / "allow.txt"
    path.write_text(textwrap.dedent(text))
    entries, problems = read_allowlist(str(path))
    assert problems == []
    return entries


def _spots(defs, *keys):
    return [(defs[k].path, defs[k].first_line) for k in keys]


def test_definitions_cover_methods_and_nested_functions(tmp_path):
    _, package = _package(tmp_path)
    assert sorted(_defs(package)) == [
        "synth.mod:Widget.unused",
        "synth.mod:Widget.used",
        "synth.mod:child",
        "synth.mod:deco",
        "synth.mod:deco.wrapper",
        "synth.mod:decorated",
        "synth.mod:parent",
    ]


def test_an_unlisted_unreached_definition_fails(tmp_path):
    _, package = _package(tmp_path)
    defs = _defs(package)
    reached = _trace(tmp_path, _spots(
        defs, "synth.mod:parent", "synth.mod:child", "synth.mod:Widget.used",
        "synth.mod:deco", "synth.mod:deco.wrapper", "synth.mod:decorated",
    ))
    result = check(list(defs.values()), reached, [])
    assert len(result.problems) == 1
    assert "synth.mod:Widget.unused" in result.problems[0]
    # Listed, it passes -- by class, by definition or by pattern.
    for target in ("synth.mod:Widget", "synth.mod:Widget.unused", "synth.*:*.unused"):
        entries = _allowlist(tmp_path, "%s  seam  reason\n" % target)
        assert check(list(defs.values()), reached, entries).problems == []


def test_a_stale_allowlist_line_fails(tmp_path):
    _, package = _package(tmp_path)
    defs = _defs(package)
    everything = _trace(tmp_path, _spots(defs, *defs))
    entries = _allowlist(tmp_path, """\
        # a comment
        synth.mod:Widget.unused  seam  now reached
        synth.mod:Gone  safety  no longer exists
    """)
    problems = check(list(defs.values()), everything, entries).problems
    assert len(problems) == 2
    assert "line 2" in problems[0] and "reached" in problems[0]
    assert "line 3" in problems[1] and "names no definition" in problems[1]


def test_a_malformed_allowlist_line_is_reported(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("synth.mod:parent  someday  no such category\nsynth.mod\n")
    entries, problems = read_allowlist(str(path))
    assert entries == [] and len(problems) == 2


def test_a_definition_reached_only_in_a_child_process_counts(tmp_path):
    root, package = _package(tmp_path)
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    program = (
        "import subprocess, sys, synth.mod; synth.mod.parent(); "
        "subprocess.run([sys.executable, '-c', "
        "'import synth.mod; synth.mod.child()'], check=True)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([TRACER, root]),
               REACH_TRACE_DIR=str(trace_dir),
               REACH_TRACE_ROOT=package + os.sep)
    subprocess.run([sys.executable, "-c", program], env=env, check=True,
                   timeout=60)
    assert len(os.listdir(trace_dir)) == 2  # one trace file per process
    defs = _defs(package)
    reached = read_traces(str(trace_dir))
    result = check(list(defs.values()), reached, [])
    unreached = {k for k in result.covering}
    assert "synth.mod:child" not in unreached
    assert "synth.mod:parent" not in unreached
    assert "synth.mod:Widget.unused" in unreached


def test_a_decorated_definition_matches_by_its_first_decorator_line(tmp_path):
    _, package = _package(tmp_path)
    defs = _defs(package)
    path = os.path.join(package, "mod.py")
    code = compile(SOURCE, path, "exec")
    [decorated] = [c for c in code.co_consts
                   if getattr(c, "co_name", None) == "decorated"]
    assert defs["synth.mod:decorated"].first_line == decorated.co_firstlineno
    assert SOURCE.splitlines()[decorated.co_firstlineno - 1] == "@deco"
    reached = _trace(tmp_path, [(path, decorated.co_firstlineno)])
    unreached = check(list(defs.values()), reached, []).covering
    assert "synth.mod:decorated" not in unreached
    # The ``def`` line itself is the next one; a call never records it.
    assert SOURCE.splitlines()[decorated.co_firstlineno] == "def decorated():"
