"""Sim-time profiler: per-handler wall-time attribution at the dispatch.

The ROADMAP's "timer wheel + stage-batched routers" item needs a target:
*which* callbacks actually burn the wall clock in a campaign-scale run?
cProfile answers in Python-function terms; this profiler answers in
simulation terms — per process family and per handler — by wrapping the
single point every event already passes through, the callback dispatch
of the simulator's one event loop (``Simulator._loop``).

Contract (mirrors the trace guard, DESIGN.md §9/§15):

* ``Simulator.profiler`` is ``None`` by default; the dispatch site is::

      prof = self.profiler
      if prof is not None:
          prof.dispatch(call.callback, call.args)
      else:
          call.callback(*call.args)

  so a detached run pays one attribute load and one identity test per
  event;
* attached, the profiler only *reads* the wall clock around the callback
  — it draws no randomness and schedules nothing, so a profiled run is
  bit-identical to an unprofiled one (directed test in
  ``tests/test_flight_profiler.py``).

Labels normalize per-instance digits (``fwd3`` -> ``fwdN``) so the
attribution aggregates by process *family*; the generator's code name is
kept as a second ``;``-separated frame.
"""

import re
from time import perf_counter

_DIGITS = re.compile(r"\d+")


class SimProfiler:
    """Accumulates per-label event counts and wall seconds."""

    def __init__(self):
        self._stats = {}          # label -> [count, wall_s]
        self.dispatches = 0
        self.wall_s = 0.0

    # ------------------------------------------------------------ hot path

    def dispatch(self, callback, args):
        """Run ``callback(*args)``, attributing its wall time."""
        started = perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = perf_counter() - started
            label = self._label(callback)
            entry = self._stats.get(label)
            if entry is None:
                entry = self._stats[label] = [0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            self.dispatches += 1
            self.wall_s += elapsed

    @staticmethod
    def _label(callback):
        """A callback's own ``profile_label`` (a function attribute shows
        through the bound method: router scans, NI pump runs),
        ``process-family;generator`` for process-owned callbacks,
        qualname for other plain functions."""
        label = getattr(callback, "profile_label", None)
        if label is not None:
            return label
        process = getattr(callback, "__self__", None)
        if process is None or not hasattr(process, "generator"):
            # Wait-lane adapters carry their process one or two hops away.
            process = getattr(callback, "process", None)
            if process is None:
                wait = getattr(callback, "wait", None)
                process = getattr(wait, "process", None)
        if process is not None:
            family = _DIGITS.sub("N", getattr(process, "name", None)
                                 or "process")
            generator = getattr(process, "generator", None)
            code = getattr(generator, "gi_code", None)
            if code is not None and code.co_name != family:
                return "%s;%s" % (family, code.co_name)
            return family
        name = getattr(callback, "__qualname__", None)
        if name is None:
            name = type(callback).__name__
        return _DIGITS.sub("N", name)

    # ------------------------------------------------------------- reports

    def top(self, limit=10):
        """``(label, count, wall_s)`` rows, heaviest wall time first."""
        rows = sorted(self._stats.items(),
                      key=lambda item: (-item[1][1], item[0]))
        return [(label, count, wall)
                for label, (count, wall) in rows[:limit]]

    def snapshot(self):
        """JSON-friendly dump of the full attribution."""
        return {
            "dispatches": self.dispatches,
            "wall_s": round(self.wall_s, 6),
            "handlers": {
                label: {"count": count, "wall_s": round(wall, 6)}
                for label, (count, wall) in sorted(self._stats.items())
            },
        }

    def merge(self, other):
        """Fold another profiler's attribution into this one."""
        for label, (count, wall) in other._stats.items():
            entry = self._stats.get(label)
            if entry is None:
                entry = self._stats[label] = [0, 0.0]
            entry[0] += count
            entry[1] += wall
        self.dispatches += other.dispatches
        self.wall_s += other.wall_s
        return self

