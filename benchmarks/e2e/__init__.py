"""The repo benchmark: four end-to-end workloads and a layer budget.

``BENCHMARK.json`` at the repo root names ``benchmarks/e2e/run.py`` as the
one command; README.md in this directory defines every metric.  The
benchmark measures the simulator from outside — it changes nothing under
``src/`` — so importing this package only makes ``repro`` importable from
a plain checkout (no ``PYTHONPATH``, no install).
"""

import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
