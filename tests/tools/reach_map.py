"""The production reach map: which definitions in ``src/repro`` a real run calls.

Runs every production entry point -- the examples, the ``perf/`` workloads
at smoke scale, the load scenarios and the ``repro.obs`` CLIs -- as a
subprocess with ``tests/tools/reach_trace`` first on ``PYTHONPATH``.  Its
``sitecustomize`` records each code object under ``src/repro`` the first
time any process of the run calls it.  Each recorded ``(file, first line)``
is matched to the function and method definitions found by parsing
``src/repro``; a decorated definition's first line is its first decorator,
which is what ``co_firstlineno`` reports.

Every definition no entry point reaches must be covered by a line of
``reach_allowlist.txt``::

    <module>[:<qualified name>]  <category>  <reason>

A target names a module, a class or a definition (``fnmatch`` patterns
allowed); a class or definition also covers what is nested in it.  The
categories are those of :data:`CATEGORIES`.  ``--check`` fails on an
uncovered unreached definition, on a stale line (its target no longer
exists, or everything it covers is now reached) and on an entry point that
exits non-zero.  The per-module table printed at the end is the one in
DESIGN.md ("Production reach map").

    python tests/tools/reach_map.py --check

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reach_trace")
ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reach_allowlist.txt")

CATEGORIES = {
    "option": "a supported input that a default run does not pick",
    "paper": "a paper feature that no scenario runs yet",
    "safety": "a refusal, a pickling guard or an abstract interface method",
    "seam": "a test seam or a test oracle",
    "perf": "named or imported by perf/",
}

#: The entry point whose reach is reported as paper-only.
PAPER_ENTRY = "examples/reproduce_evaluation.py"

#: ``(name, argv)`` after the examples; ``{work}`` is a scratch directory
#: for the run's output.
ENTRY_POINTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("perf smoke", ("perf/run.py", "--scale", "smoke", "--out", "{work}/perf")),
    ("load smoke memory",
     ("-m", "repro.load", "--builtin", "smoke", "--driver", "memory")),
    ("load smoke-bucketed memory",
     ("-m", "repro.load", "--builtin", "smoke-bucketed", "--driver", "memory")),
    ("load warm-churn memory",
     ("-m", "repro.load", "--builtin", "warm-churn", "--driver", "memory")),
    ("load smoke tcp process broker",
     ("-m", "repro.load", "--builtin", "smoke", "--driver", "tcp",
      "--broker", "process")),
    ("load churn-relay tcp",
     ("-m", "repro.load", "--builtin", "churn-relay", "--driver", "tcp",
      "--obs-dir", "{work}/obs", "--profile-dir", "{work}/profile")),
    ("obs report", ("-m", "repro.obs.report", "{work}/obs", "--check")),
    ("obs analyze", ("-m", "repro.obs.analyze", "{work}/obs", "--check")),
    ("obs profile", ("-m", "repro.obs.profile", "{work}/profile", "--check")),
)


def entry_points() -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """Every script in ``examples/``, then :data:`ENTRY_POINTS`."""
    examples = sorted(n for n in os.listdir(os.path.join(ROOT, "examples"))
                      if n.endswith(".py"))
    return tuple(("examples/" + n, ("examples/" + n,)) for n in examples) + (
        ENTRY_POINTS)


class Definition(NamedTuple):
    module: str  # dotted, e.g. ``repro.crypto.hashes``
    qualname: str  # dotted through classes and enclosing functions
    path: str  # absolute file path
    first_line: int  # first decorator, else the ``def`` line
    lines: int  # decorators through the last line of the body

    @property
    def key(self) -> str:
        return "%s:%s" % (self.module, self.qualname)


class Entry(NamedTuple):
    module: str  # fnmatch pattern
    qualname: Optional[str]  # fnmatch pattern; None covers the whole module
    category: str
    reason: str
    line: int

    @property
    def target(self) -> str:
        return self.module if self.qualname is None else (
            "%s:%s" % (self.module, self.qualname))

    def covers(self, definition: Definition) -> bool:
        if not fnmatch.fnmatchcase(definition.module, self.module):
            return False
        if self.qualname is None:
            return True
        return fnmatch.fnmatchcase(definition.qualname, self.qualname) or (
            fnmatch.fnmatchcase(definition.qualname, self.qualname + ".*"))


# -- the definitions -------------------------------------------------------


def module_name(path: str, package_dir: str) -> str:
    """``<package_dir>/a/b.py`` -> ``<package>.a.b`` (``__init__`` dropped)."""
    parent = os.path.dirname(package_dir)
    parts = os.path.relpath(path, parent)[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def definitions(package_dir: str = PACKAGE) -> List[Definition]:
    """Every function and method definition in the package, nested ones too."""
    found: List[Definition] = []
    for folder, _, files in sorted(os.walk(package_dir)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            found.extend(_walk(tree, module_name(path, package_dir), path, ()))
    return found


def _walk(node: ast.AST, module: str, path: str,
          scope: Tuple[str, ...]) -> Iterable[Definition]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            inner = scope + (child.name,)
            yield Definition(module, ".".join(inner), path, first,
                             child.end_lineno - first + 1)
            yield from _walk(child, module, path, inner)
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, module, path, scope + (child.name,))
        else:
            yield from _walk(child, module, path, scope)


# -- the traces ------------------------------------------------------------


def read_traces(trace_dir: str) -> Set[Tuple[str, int]]:
    """Every ``(file, first line)`` in the ``trace-*.txt`` files under a dir."""
    reached: Set[Tuple[str, int]] = set()
    for folder, _, files in os.walk(trace_dir):
        for name in files:
            if not (name.startswith("trace-") and name.endswith(".txt")):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                for line in handle:
                    path, _, lineno = line.rstrip("\n").rpartition("\t")
                    if path and lineno.isdigit():
                        reached.add((os.path.abspath(path), int(lineno)))
    return reached


def run_entry_points(work: str, entries) -> List[str]:
    """Run each entry point traced into ``work/<n>``; returns the failures."""
    failures = []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([TRACER, SRC]),
               REACH_TRACE_ROOT=PACKAGE + os.sep)
    for index, (name, argv) in enumerate(entries):
        trace_dir = os.path.join(work, "%02d" % index)
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, "NAME"), "w", encoding="utf-8") as handle:
            handle.write(name)
        command = [sys.executable] + [a.format(work=work) for a in argv]
        started = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              env=dict(env, REACH_TRACE_DIR=trace_dir))
        print("%-34s exit %d  %6.1f s" % (name, done.returncode,
                                         time.monotonic() - started), flush=True)
        if done.returncode != 0:
            failures.append("entry point %r exited %d:\n%s" % (
                name, done.returncode, (done.stdout + done.stderr)[-3000:]))
    return failures


def reach_by_entry(work: str) -> Dict[str, Set[Tuple[str, int]]]:
    """``{entry point name: reached}`` for a work dir of per-entry traces."""
    out = {}
    for sub in sorted(os.listdir(work)):
        name_file = os.path.join(work, sub, "NAME")
        if os.path.isfile(name_file):
            with open(name_file, encoding="utf-8") as handle:
                out[handle.read()] = read_traces(os.path.join(work, sub))
    return out


# -- the allowlist ---------------------------------------------------------


def read_allowlist(path: str = ALLOWLIST) -> Tuple[List[Entry], List[str]]:
    """The entries, and a problem line for each malformed one."""
    entries, problems = [], []
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split(None, 2)
            if len(fields) < 3 or fields[1] not in CATEGORIES:
                problems.append("allowlist line %d: want '<target> <category> "
                                "<reason>' with a category of %s: %r"
                                % (number, sorted(CATEGORIES), text))
                continue
            module, _, qualname = fields[0].partition(":")
            entries.append(Entry(module, qualname or None, fields[1], fields[2],
                                 number))
    return entries, problems


# -- the check -------------------------------------------------------------


class ReachMap(NamedTuple):
    definitions: List[Definition]
    reached: Set[Tuple[str, int]]
    covering: Dict[str, Optional[Entry]]  # unreached key -> first entry
    problems: List[str]


def check(defs: List[Definition], reached: Set[Tuple[str, int]],
          entries: List[Entry]) -> ReachMap:
    """Match the unreached definitions against the allowlist entries."""
    problems: List[str] = []
    covering: Dict[str, Optional[Entry]] = {}
    uses: Counter = Counter()
    matched: Counter = Counter()
    for definition in defs:
        hit = [e for e in entries if e.covers(definition)]
        for entry in hit:
            matched[entry.line] += 1
        if (definition.path, definition.first_line) in reached:
            continue
        covering[definition.key] = hit[0] if hit else None
        for entry in hit:
            uses[entry.line] += 1
        if not hit:
            problems.append("unreached and not allowlisted: %s (%s:%d)" % (
                definition.key, os.path.relpath(definition.path, ROOT),
                definition.first_line))
    for entry in entries:
        if not matched[entry.line]:
            problems.append("stale allowlist line %d: %s names no definition"
                            % (entry.line, entry.target))
        elif not uses[entry.line]:
            problems.append("stale allowlist line %d: everything %s covers is "
                            "reached" % (entry.line, entry.target))
    return ReachMap(defs, reached, covering, problems)


def table(result: ReachMap, paper_only: Set[Tuple[str, int]]) -> str:
    """The per-module markdown table: definitions, reached, paper-only
    (reached only by :data:`PAPER_ENTRY`) and allowlisted by category."""
    columns = ["definitions", "reached", "paper-only"] + list(CATEGORIES)
    rows: Dict[str, Counter] = defaultdict(Counter)
    for definition in result.definitions:
        row = rows[definition.module]
        row["definitions"] += 1
        spot = (definition.path, definition.first_line)
        if spot in result.reached:
            row["reached"] += 1
            row["paper-only"] += spot in paper_only
        else:
            entry = result.covering.get(definition.key)
            row[entry.category if entry else "uncovered"] += 1
    if any(row["uncovered"] for row in rows.values()):
        columns.append("uncovered")
    total = sum(rows.values(), Counter())
    lines = ["| module | " + " | ".join(columns) + " |",
             "|---|" + "---:|" * len(columns)]
    for module in sorted(rows) + ["**total**"]:
        row = total if module == "**total**" else rows[module]
        lines.append("| %s | %s |" % (
            module if module.startswith("*") else "`%s`" % module,
            " | ".join(str(row[c]) for c in columns)))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any problem (the CI gate)")
    parser.add_argument("--traces", default=None, metavar="DIR",
                        help="keep the traces in DIR; reuse them if DIR "
                             "already holds a run")
    args = parser.parse_args(argv)

    problems: List[str] = []
    work = args.traces or tempfile.mkdtemp(prefix="reach-map-")
    os.makedirs(work, exist_ok=True)
    if not reach_by_entry(work):
        problems += run_entry_points(work, entry_points())
    by_entry = reach_by_entry(work)
    reached = set().union(*by_entry.values())
    others = set().union(*(r for n, r in by_entry.items() if n != PAPER_ENTRY))
    entries, bad_lines = read_allowlist()
    result = check(definitions(), reached, entries)
    problems += bad_lines + result.problems
    print(table(result, by_entry.get(PAPER_ENTRY, set()) - others))
    unreached = [d for d in result.definitions
                 if (d.path, d.first_line) not in reached]
    print("\n%d of %d definitions (%d lines) unreached; %d problem(s)" % (
        len(unreached), len(result.definitions), sum(d.lines for d in unreached),
        len(problems)))
    for problem in problems:
        print(problem)
    if args.traces is None:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    sys.exit(main())
