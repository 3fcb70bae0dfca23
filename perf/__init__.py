"""The repo's benchmark: workloads, harness and tracing (see perf/README.md).

Importing the package puts ``src/`` on ``sys.path``: the benchmark measures
the program in this checkout and needs no ``PYTHONPATH``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
