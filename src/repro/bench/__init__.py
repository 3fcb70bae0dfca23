"""Measurement harness for reproducing the paper's tables and figures.

:mod:`repro.bench.figures` has one driver per evaluation artifact
(``table2``, ``fig2`` ... ``fig6``); each returns structured rows and can
print the same series the paper plots.  ``benchmarks/`` calls them and
asserts the paper's trends; ``examples/reproduce_evaluation.py`` prints
them.  System performance is ``perf/``'s job (``BENCHMARK.json``).
"""

from repro.bench.runner import Measurement, avg_time, format_table
from repro.bench.figures import fig2, fig3, fig4, fig5, fig6, table2

__all__ = [
    "Measurement",
    "avg_time",
    "format_table",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
]
