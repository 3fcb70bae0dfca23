"""The measurement loop: set-up, timed window, oracle count, metrics.

One call of :func:`run` is one benchmark run of one workload: it builds
the world (several times, for a median ``setup_s``), runs one untimed
warm-up operation, then cuts the ``--seconds`` window into equal blocks
with a ``gc.collect()`` between them.  Each block yields its own median
latency and throughput; a reported timing is the *best block's* value.
Interference on a shared host only ever adds time and comes in bursts of
seconds, so the quietest block is the one that measures the program (the
``timeit`` argument, with a per-block median in place of a single
timing); the pooled median moved by 20 % between runs of one commit where
the best block moved by 5-10 %.  With ``trace`` every other block runs
with the :mod:`perf.tracing` wrappers installed (the blocks between run
unwrapped, which is what the tracing overhead is measured against) and
the per-layer metrics come from the traced blocks only.

Metric names, units and the workload list are read from
``BENCHMARK.json``: that file is the contract and this module refuses to
report a name it does not list, or to omit one it does.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from typing import Dict, List, Optional

from perf import ROOT
from perf.tracing import OP_SPAN, SPAN_TARGETS, Tracer, percentile
from perf.workloads import SIZES, WORKLOADS
from repro.errors import ReproError

#: Blocks per window and world builds per run (median ``setup_s``).
WINDOWS = {
    "full": {"blocks": 20, "setup_repeats": 3},
    "smoke": {"blocks": 2, "setup_repeats": 1},
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> dict:
    """What decides which kernels ran: results from different
    fingerprints are not comparable (``commit`` is informational)."""
    import repro.groups._native as native
    import repro.mathx.linalg as linalg

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gmpy2": bool(native.HAVE_GMPY2),
        "numpy": getattr(linalg, "np", None) is not None,
        "REPRO_NATIVE_MATH": os.environ.get("REPRO_NATIVE_MATH", ""),
        "commit": commit,
    }


class OpClock:
    """Wall and thread-CPU time of one operation's timed segments; in a
    traced block each segment is also one ``harness.op`` root span."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.elapsed = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "OpClock":
        if self.tracer is not None:
            self.tracer.begin_op()
        self._cpu = time.thread_time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed += time.perf_counter() - self._start
        self.cpu += time.thread_time() - self._cpu
        if self.tracer is not None:
            self.tracer.end_op()


def calibrate() -> float:
    """Milliseconds for a fixed modular-exponentiation loop: the machine's
    speed on the day, independent of the repo's code."""
    p = (1 << 521) - 1
    started = time.perf_counter()
    acc = 3
    for k in range(400):
        acc = pow(acc + k, 65537, p)
    return (time.perf_counter() - started) * 1e3


class Block:
    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.latencies: List[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.units = 0

    def p50(self) -> float:
        return statistics.median(self.latencies)


def _best(blocks: List[Block], stat, best=min) -> float:
    """The best block's statistic (0 when no block has a sample)."""
    return best((stat(block) for block in blocks if block.latencies), default=0.0)


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", out: Optional[str] = None,
        prepare=None) -> dict:
    """One benchmark run; returns the result record.

    ``prepare(world)`` runs after the warm-up and before the window (the
    self-test uses it to inject faults).
    """
    spec = load_spec()
    window = WINDOWS[scale]
    size = SIZES[scale][workload]
    work_root = os.path.join(ROOT, "perf", ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="w-", dir=work_root)
    # Whatever the program or its server processes write as temporaries
    # (supervisor logs, data dirs) stays inside the checkout.
    previous_tmp = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    world = None
    tracer = Tracer() if trace else None
    try:
        setups = []
        for _ in range(1 if trace else window["setup_repeats"]):
            if world is not None:
                world.close()
            gc.collect()
            started = time.perf_counter()
            world = WORKLOADS[workload](seed, size, workdir)
            world.build()
            if not world.run_op(OpClock(None)):
                raise RuntimeError("%s: warm-up operation failed its oracle"
                                   % workload)
            world.between_ops()
            setups.append(time.perf_counter() - started)
        if prepare is not None:
            prepare(world)
        if tracer is not None and world.networked:
            tracer.relay_members = world.relay_members()
        record = _window(world, tracer, seconds, window["blocks"], size.get("ops"))
    finally:
        if tracer is not None:
            tracer.remove()
        if world is not None:
            world.close()
        os.environ.pop("TMPDIR")
        if previous_tmp[0] is not None:
            os.environ["TMPDIR"] = previous_tmp[0]
        tempfile.tempdir = previous_tmp[1]
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = statistics.median(setups)
    listed = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values = _per_layer(record, tracer, world, {m["name"] for m in listed})
    else:
        values = _end_to_end(record)
    missing = {m["name"] for m in listed} - set(values)
    if missing:
        raise RuntimeError("no value for listed metrics %s" % sorted(missing))
    result = {
        "workload": workload, "seed": seed, "scale": scale,
        "seconds": seconds, "trace": int(trace),
        "correct": record["failed"] == 0,
        "attempted": record["attempted"], "failed": record["failed"],
        "failed_ratio": record["failed"] / record["attempted"],
        "samples": sum(len(b.latencies) for b in record["blocks"]),
        "unit": world.unit,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
        "notes": record["notes"],
    }
    if out:
        os.makedirs(out, exist_ok=True)
        stem = os.path.join(out, "%s.trace%d" % (workload, int(trace)))
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(dict(result, env=fingerprint()), handle, indent=1)
        if tracer is not None:
            tracer.write_spans(stem + ".spans.jsonl")
    return result


def _window(world, tracer, seconds, block_count, quota) -> dict:
    """The timed window: ``block_count`` consecutive slices of ``seconds /
    block_count`` wall each (of ``quota`` operations each at smoke scale).

    An operation belongs to the block it starts in, so the window ends at
    most one operation late however slow the operations are; a slice in
    which no operation started is an empty block.
    """
    blocks: List[Block] = []
    attempted = failed = 0
    cache = {"hits": 0, "misses": 0, "extends": 0}
    calib = [calibrate()] if tracer is not None else []
    servers = [world.server_stats()] if tracer is not None else []
    bytes_before = world.wire_bytes()
    untimed = 0.0
    block = cache_before = None

    def close_block() -> None:
        if block is not None and block.traced:
            tracer.remove()
            for key, value in world.cache_stats().items():
                cache[key] += value - cache_before[key]
        if block is not None and tracer is not None:
            servers.append(world.server_stats())

    started = time.perf_counter()
    while True:
        if quota:
            index = attempted // quota
        else:
            index = int((time.perf_counter() - started) * block_count / seconds)
        if index >= block_count:
            break
        if block is None or index != block.index:
            pause = time.perf_counter()
            close_block()
            block = Block(index, traced=tracer is not None and index % 2 == 0)
            blocks.append(block)
            gc.collect()
            if block.traced:
                tracer.install()
                cache_before = world.cache_stats()
            untimed += time.perf_counter() - pause
        clock = OpClock(tracer if block.traced else None)
        try:
            ok = world.run_op(clock)
        except ReproError:
            # A timeout or a typed protocol error is a failed operation,
            # not a failed benchmark.
            ok = False
        attempted += 1
        block.wall += clock.elapsed
        block.cpu += clock.cpu
        if ok:
            block.latencies.append(clock.elapsed)
            block.units += world.units_per_op()
        else:
            failed += 1
        pause = time.perf_counter()
        try:
            world.between_ops()
        except ReproError:
            pass  # the next operation fails and is counted there
        untimed += time.perf_counter() - pause
    close_block()
    if tracer is not None:
        calib.append(calibrate())
    return {
        "blocks": blocks, "attempted": attempted, "failed": failed,
        "wire_bytes": world.wire_bytes() - bytes_before,
        "cache": cache, "calib": calib, "servers": servers,
        "notes": {"untimed_between_ops_s": untimed},
    }


def _end_to_end(record: dict) -> Dict[str, float]:
    blocks = record["blocks"]
    return {
        "setup_s": record["setup_s"],
        "latency_p50_ms": 1e3 * _best(blocks, Block.p50),
        "throughput_per_s": _best(blocks, lambda b: b.units / b.wall, max),
        "wire_bytes_per_op": record["wire_bytes"] / record["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(record: dict, tracer: Tracer, world, listed: set) -> Dict[str, float]:
    """Per-layer self times and counts over the traced blocks."""
    busy, calls = tracer.self_times()
    counts = tracer.counts
    traced = [b for b in record["blocks"] if b.traced]
    plain = [b for b in record["blocks"] if not b.traced]
    wall = sum(b.wall for b in traced)
    values: Dict[str, float] = {}
    for name in {target[0] for target in SPAN_TARGETS}:
        values["%s_busy_s" % name] = busy[name]
        values["%s_calls" % name] = calls[name]
    values.update({
        "mathx.modinv_calls": counts["mathx.modinv_calls"],
        "crypto.cipher_bytes": counts["crypto.cipher_bytes"],
        "crypto.decrypt_useful_ratio": _ratio(
            counts["crypto.decrypts_ok"], counts["crypto.decrypts"]),
        "crypto.aes_key_setups": counts["crypto.aes_key_setups"],
        "ocbe.open_useful_ratio": _ratio(
            counts["ocbe.opens_ok"], calls["ocbe.open"]),
        "gkm.cache_hits": record["cache"]["hits"],
        "gkm.cache_misses": record["cache"]["misses"],
        "gkm.cache_extends": record["cache"]["extends"],
        "gkm.header_bytes": sum(p.header_overhead() for p in tracer.packages),
        "wire.frame_bytes": counts["wire.frame_bytes"],
        "store.wal_bytes": counts["store.wal_bytes"],
        "harness.unattributed_s": busy[OP_SPAN],
        "harness.trace_overhead_ratio": _ratio(
            _best(traced, Block.p50), _best(plain, Block.p50)
        ) - 1.0 if plain else 0.0,
        "harness.samples": sum(len(b.latencies) for b in traced),
        "harness.block_spread": _ratio(
            _best(traced, Block.p50, max), _best(traced, Block.p50)),
        "harness.latency_p95_ms": 1e3 * percentile(
            [x for b in plain or traced for x in b.latencies], 0.95),
        "harness.calib_ms": statistics.mean(record["calib"]),
    })
    transits = tracer.transits
    both = transits["root"] + transits["relay"]
    servers = record["servers"]
    values.update({
        "net.transit_p50_ms": 1e3 * percentile(both, 0.5),
        "net.transit_p95_ms": 1e3 * percentile(both, 0.95),
        "net.transit_root_p50_ms": 1e3 * percentile(transits["root"], 0.5),
        "net.transit_relay_p50_ms": 1e3 * percentile(transits["relay"], 0.5),
        "net.poll_empty_ratio": _ratio(counts["net.polls_empty"], calls["net.poll"]),
        # Wall the harness thread spent off the CPU inside operations:
        # sleeping in pump_until or waiting on the transport's loop thread.
        "net.idle_sleep_s":
            sum(b.wall - b.cpu for b in traced) if world.networked else 0.0,
        "net.broker_pending_max":
            max((s["broker_pending"] for s in servers if s), default=0),
    })
    for key in ("broker_delivered", "broker_dropped", "relay_delivered",
                "relay_dropped"):
        values["net.%s" % key] = (
            servers[-1][key] - servers[0][key] if servers and servers[0] else 0
        )
    # The identity the ledger rests on: every wrapped span belongs to a
    # listed metric, so self times + unattributed = the traced wall.
    stray = {n for n in busy if n != OP_SPAN and "%s_busy_s" % n not in listed}
    if stray:
        raise RuntimeError("spans without a listed busy metric: %s" % sorted(stray))
    explained = sum(busy.values())
    record["notes"].update({
        "traced_wall_s": wall,
        "self_time_sum_s": explained,
        "unexplained_s": wall - explained,
    })
    return values


def render(result: dict) -> str:
    """The human-readable lines of one run: every metric by name and unit."""
    lines = ["%s  seed=%d  trace=%d  scale=%s  samples=%d  throughput unit=%s" % (
        result["workload"], result["seed"], result["trace"], result["scale"],
        result["samples"], result["unit"])]
    lines.append("  %-32s %14d count" % ("attempted", result["attempted"]))
    lines.append("  %-32s %14d count" % ("failed", result["failed"]))
    lines.append("  %-32s %14.6f ratio" % ("failed_ratio", result["failed_ratio"]))
    for name, metric in result["metrics"].items():
        lines.append("  %-32s %14.6f %s" % (name, metric["value"], metric["unit"]))
    for name, value in result["notes"].items():
        lines.append("  (%s = %.6f)" % (name, value))
    if result["trace"]:
        lines.append("  self-time share of the traced window, by layer:")
        lines.extend("    %-12s %5.1f%%" % row for row in layer_shares(result))
    return "\n".join(lines)


def layer_shares(result: dict) -> List[tuple]:
    """``(layer, percent of the traced wall)``, largest first; the
    ``harness`` row is the share no wrapped layer explains."""
    wall = result["notes"]["traced_wall_s"]
    shares: Dict[str, float] = {}
    for name, metric in result["metrics"].items():
        if name.endswith("_busy_s") or name == "harness.unattributed_s":
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + metric["value"]
    return sorted(((layer, 100.0 * value / wall) for layer, value in shares.items()),
                  key=lambda row: -row[1])


def driver_line(result: dict) -> str:
    """The last stdout line of a run, as the benchmark contract wants it."""
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})
