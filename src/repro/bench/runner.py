"""Small timing utilities shared by the figure drivers and every printed
table in the repo: repeat-and-average timing and a fixed-width table."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

__all__ = ["Measurement", "avg_time", "format_table"]


@dataclass(frozen=True)
class Measurement:
    """Mean/min/max of repeated timings, in seconds."""

    mean: float
    minimum: float
    maximum: float
    rounds: int

    @property
    def mean_ms(self) -> float:
        """Mean in milliseconds."""
        return self.mean * 1e3


def avg_time(fn: Callable[[], object], rounds: int = 3) -> Measurement:
    """Average wall-clock time of ``fn`` over ``rounds`` calls.

    The cyclic collector is paused while timing, as :mod:`timeit` does: a
    full pass over a test session's heap costs tens of milliseconds.
    """
    times: List[float] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(rounds, 1)):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return Measurement(
        mean=sum(times) / len(times),
        minimum=min(times),
        maximum=max(times),
        rounds=len(times),
    )


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width ASCII table (the harness's printed output)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title]
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return "%.3f" % cell
    return str(cell)
