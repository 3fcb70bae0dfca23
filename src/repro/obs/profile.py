"""Opt-in deterministic CPU profiling windows keyed to span stage names.

The attribution tables from :mod:`repro.obs.analyze` say *which stage*
eats a publish or a join wave; this module says *which functions inside
the stage*.  A :class:`ProfileRecorder` wraps named windows of work in
:mod:`cProfile` and folds each window's stats into a per-stage,
per-function aggregate -- calls, total time, cumulative time -- keyed
``"filename:lineno:function"`` with the filename reduced to its
basename.

Privacy posture matches the span writer's: the recorder stores
**function names only** -- never argument values, never locals, never
payload bytes -- so a profile file is as payload-free as a span log.

Profiling is opt-in per process (``--profile-dir`` on the entity CLIs
and ``repro.load``); unprofiled runs never construct a profiler, and
:func:`profile_window` is a single global read when none is installed,
so the wire behavior and hot paths of unprofiled runs are untouched.
CPython allows one active profiler per interpreter, so windows must not
nest or overlap: the recorder holds an ``_active`` flag under a lock
and an inner/concurrent window simply runs unprofiled (counted as a
skip) instead of crashing the serving loop.

``python -m repro.obs.profile`` merges the per-entity ``profile_*.json``
files of a run and prints the top functions per stage, naming where
the join-wave CPU actually goes.

Like every ``repro.obs`` module this imports no crypto and must stay
importable from a keyless relay-tier process.
"""

from __future__ import annotations

import argparse
import cProfile
import fnmatch
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.obs.trace import SpanWriter, set_span_writer, writer_for

__all__ = [
    "ProfileRecorder",
    "get_profiler",
    "main",
    "merge_profiles",
    "observing",
    "profile_window",
    "recorder_for",
    "set_profiler",
]


def _fold(profiler: "cProfile.Profile") -> Dict[str, Tuple[int, float, float]]:
    """Collapse one window's stats to ``key -> (calls, tottime, cumtime)``.

    The key is ``basename:lineno:function`` -- enough to find the code,
    nothing about the data it ran on.
    """
    import pstats

    out: Dict[str, Tuple[int, float, float]] = {}
    stats = pstats.Stats(profiler)
    for (filename, lineno, funcname), row in stats.stats.items():
        _cc, ncalls, tottime, cumtime = row[0], row[1], row[2], row[3]
        key = "%s:%d:%s" % (os.path.basename(filename), lineno, funcname)
        calls, tot, cum = out.get(key, (0, 0.0, 0.0))
        out[key] = (calls + ncalls, tot + tottime, cum + cumtime)
    return out


class ProfileRecorder:
    """Per-process profile aggregator writing one ``profile_<entity>.json``.

    Thread-safe bookkeeping; the actual profiled window runs without the
    lock held (profiling a serving loop must not serialize unrelated
    threads on our bookkeeping).
    """

    def __init__(self, path: str, entity: str):
        self.path = path
        self.entity = entity
        self._lock = threading.Lock()
        self._active = False
        self._stages: Dict[str, dict] = {}
        self._meta: Dict[str, object] = {}
        self.skipped_windows = 0

    def annotate(self, **fields) -> None:
        """Attach run metadata (JSON scalars) to the artifact.

        The caller passes plain strings/numbers -- e.g. the math backend
        name or the worker-pool size -- so this module never has to
        import the crypto stack to describe it.
        """
        with self._lock:
            self._meta.update(fields)

    @contextmanager
    def window(self, stage: str):
        """Profile one window of work under ``stage``.

        When another window is already active (nested stages, or two
        threads) the block runs unprofiled -- cProfile cannot nest --
        and the skip is counted so the report can say so.
        """
        with self._lock:
            if self._active:
                self.skipped_windows += 1
                grabbed = False
            else:
                self._active = True
                grabbed = True
        if not grabbed:
            yield
            return
        profiler = cProfile.Profile()
        begun = time.perf_counter()
        try:
            profiler.enable()
            try:
                yield
            finally:
                profiler.disable()
        finally:
            wall = time.perf_counter() - begun
            with self._lock:
                self._active = False
                self._record(stage, wall, _fold(profiler))

    def _record(
        self, stage: str, wall: float,
        functions: Dict[str, Tuple[int, float, float]],
    ) -> None:
        cut = self._stages.setdefault(stage, {
            "windows": 0, "wall_s": 0.0, "min_s": wall, "max_s": wall,
            "functions": {},
        })
        cut["windows"] += 1
        cut["wall_s"] += wall
        cut["min_s"] = min(cut["min_s"], wall)
        cut["max_s"] = max(cut["max_s"], wall)
        folded = cut["functions"]
        for key, (calls, tot, cum) in functions.items():
            old = folded.get(key, (0, 0.0, 0.0))
            folded[key] = (old[0] + calls, old[1] + tot, old[2] + cum)

    def payload(self) -> dict:
        with self._lock:
            return {
                "entity": self.entity,
                "meta": dict(self._meta),
                "skipped_windows": self.skipped_windows,
                "stages": {
                    stage: {
                        "windows": cut["windows"],
                        "wall_s": cut["wall_s"],
                        "min_s": cut["min_s"],
                        "max_s": cut["max_s"],
                        "functions": {
                            key: list(value)
                            for key, value in cut["functions"].items()
                        },
                    }
                    for stage, cut in self._stages.items()
                },
            }

    def write(self) -> Optional[str]:
        """Atomically persist the aggregate; returns the path, or ``None``
        when no window ever ran (no empty artifacts)."""
        payload = self.payload()
        if not payload["stages"]:
            return None
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        scratch = self.path + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(scratch, self.path)
        return self.path


def recorder_for(
    profile_dir: Optional[str], entity: str
) -> Optional[ProfileRecorder]:
    """A recorder at ``<profile_dir>/profile_<entity>.json``, or ``None``."""
    if not profile_dir:
        return None
    return ProfileRecorder(
        os.path.join(profile_dir, "profile_%s.json" % entity), entity
    )


#: Process-global recorder; ``None`` keeps :func:`profile_window` a
#: single global read (the unprofiled default).
_profiler: Optional[ProfileRecorder] = None


def set_profiler(
    recorder: Optional[ProfileRecorder],
) -> Optional[ProfileRecorder]:
    """Install the process-global recorder; returns the previous one."""
    global _profiler
    previous = _profiler
    _profiler = recorder
    return previous


def get_profiler() -> Optional[ProfileRecorder]:
    return _profiler


@contextmanager
def profile_window(stage: str):
    """Profile a block under ``stage`` via the global recorder (no-op
    when profiling is not enabled for this process)."""
    recorder = _profiler
    if recorder is None:
        yield
        return
    with recorder.window(stage):
        yield


@contextmanager
def observing(
    obs_dir: Optional[str], profile_dir: Optional[str], entity: str
) -> Iterator[Tuple[Optional[SpanWriter], Optional[ProfileRecorder]]]:
    """One process's (or engine's) telemetry scope: install
    ``writer_for(obs_dir)`` and ``recorder_for(profile_dir)`` as the
    process globals so stage spans and profile windows land in this
    entity's files; on the way out restore whatever the host had, write
    the profile and flush a final registry snapshot into the span log --
    the entity-side end of the collection path.  Yields
    ``(writer, recorder)``, either ``None`` when its directory is unset.
    """
    writer = writer_for(obs_dir, entity)
    recorder = recorder_for(profile_dir, entity)
    previous_writer = set_span_writer(writer)
    previous_recorder = set_profiler(recorder)
    try:
        yield writer, recorder
    finally:
        set_span_writer(previous_writer)
        set_profiler(previous_recorder)
        if recorder is not None:
            recorder.write()
        if writer is not None:
            writer.metrics(get_registry().snapshot())
            writer.close()


# -- merging and the CLI ----------------------------------------------------


def discover_profiles(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into ``profile_*.json`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for name in sorted(files):
                    if fnmatch.fnmatch(name, "profile_*.json"):
                        found.append(os.path.join(root, name))
        elif os.path.exists(path):
            found.append(path)
    return sorted(set(found))


def merge_profiles(paths: Iterable[str]) -> dict:
    """Fold several per-entity profile files into one per-stage view.

    Hostile/stale inputs degrade: a file that is not valid JSON or not
    shaped like a profile contributes nothing but a ``"skipped"`` entry.
    """
    stages: Dict[str, dict] = {}
    entities: List[str] = []
    skipped: List[str] = []
    meta: Dict[str, List[str]] = {}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            file_stages = payload["stages"]
            if not isinstance(file_stages, dict):
                raise TypeError("stages is not an object")
        except (OSError, ValueError, KeyError, TypeError):
            skipped.append(path)
            continue
        entities.append(str(payload.get("entity", os.path.basename(path))))
        file_meta = payload.get("meta", {})
        if isinstance(file_meta, dict):
            for key, value in file_meta.items():
                values = meta.setdefault(str(key), [])
                if str(value) not in values:
                    values.append(str(value))
        for stage, cut in file_stages.items():
            try:
                windows = int(cut["windows"])
                wall = float(cut["wall_s"])
                functions = cut.get("functions", {})
                items = [
                    (str(key), int(value[0]), float(value[1]), float(value[2]))
                    for key, value in functions.items()
                ]
            except (KeyError, TypeError, ValueError, IndexError):
                skipped.append("%s#%s" % (path, stage))
                continue
            merged = stages.setdefault(stage, {
                "windows": 0, "wall_s": 0.0, "functions": {},
            })
            merged["windows"] += windows
            merged["wall_s"] += wall
            folded = merged["functions"]
            for key, calls, tot, cum in items:
                old = folded.get(key, (0, 0.0, 0.0))
                folded[key] = (old[0] + calls, old[1] + tot, old[2] + cum)
    return {
        "entities": sorted(entities),
        "stages": stages,
        "skipped": skipped,
        "meta": {key: sorted(values) for key, values in meta.items()},
    }


def top_functions(
    merged: dict, stage: str, count: int
) -> List[Tuple[str, int, float, float]]:
    cut = merged["stages"].get(stage)
    if not cut:
        return []
    rows = [
        (key, calls, tot, cum)
        for key, (calls, tot, cum) in cut["functions"].items()
    ]
    rows.sort(key=lambda row: -row[2])
    return rows[:count]


def main(argv=None) -> int:
    from repro.bench.runner import format_table

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Merge profile_<entity>.json files and attribute CPU "
                    "to named functions per stage.",
    )
    parser.add_argument("paths", nargs="*", default=["."],
                        help="profile_*.json files or directories to scan")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="functions per stage to print (default 10)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when no profiled stage is found")
    args = parser.parse_args(argv)

    files = discover_profiles(args.paths or ["."])
    merged = merge_profiles(files)
    print("%d profile file(s), %d entit(ies), %d stage(s)" % (
        len(files), len(merged["entities"]), len(merged["stages"]),
    ))
    for stage, cut in sorted(merged["stages"].items()):
        rows = [
            [key, calls, tot * 1e3, cum * 1e3]
            for key, calls, tot, cum in top_functions(merged, stage, args.top)
        ]
        print(format_table(
            "stage %s: %d window(s), %.1f ms wall" % (
                stage, cut["windows"], cut["wall_s"] * 1e3,
            ),
            ["function", "calls", "tottime ms", "cumtime ms"], rows,
        ))
    for path in merged["skipped"]:
        print("SKIPPED %s" % path)
    if args.check and not merged["stages"]:
        print("CHECK FAILED: no profiled stages under %s" % (args.paths,))
        return 1
    if args.check:
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
