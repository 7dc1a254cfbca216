"""Telemetry: event tracing, metrics, and the scalability bench.

Everything is disabled by default (zero-cost when off):

* :mod:`repro.telemetry.trace` — the structured event bus.  Instrumented
  components (routers, node interfaces, MAGIC, the recovery manager and
  agents, the fault injector) each hold a ``trace`` attribute that is
  ``None`` unless the one recorder class, :class:`TraceRecorder`, was
  attached; every emission site is guarded by a single ``is None`` check,
  which is the whole overhead contract (see DESIGN.md §9).  The recorder
  takes a retention policy: unbounded, the first N events, or the last N.
* :mod:`repro.telemetry.metrics` — the containment percentile and
  :func:`summarize_run`, the one post-run sweep of the hardware stats
  (RouterStats, MagicStats, RecoveryReports) that the model maintains
  anyway; its ``recovery.timeline`` is the one per-episode account of
  recovery time (trigger, each §4.1 restart, total).  Per-node phase
  spans and the critical path are not reconstructed here: every
  :class:`~repro.recovery.manager.RecoveryReport` records them, traced
  or not.
* :mod:`repro.telemetry.chrome` — Chrome ``trace_event`` JSON export for
  chrome://tracing / Perfetto, with flow arrows along causal edges.
* :mod:`repro.telemetry.forensics` — causal DAG reconstruction, per-fault
  blast radii and the observational containment audit (DESIGN.md §11).

The observability layer (DESIGN.md §15) builds on the same contract:

* :mod:`repro.telemetry.flight` — flight mode, the recorder's
  keep-the-*last*-N policy, and the readers of a dumped window;
* :mod:`repro.telemetry.profiler` — per-handler sim-time profiling over
  the event-loop dispatch (attach-only, same ``is not None`` guard);
* :mod:`repro.telemetry.status` / :mod:`repro.telemetry.report` — fleet
  heartbeat sidecars and the aggregated HTML report.

:mod:`repro.telemetry.scalability` builds the paper's Section 6 style
recovery-latency-vs-machine-size sweep on top (``repro.cli bench``).
"""

from repro.telemetry.chrome import to_chrome_trace, write_chrome_trace
from repro.telemetry.flight import (
    FlightRecorder,
    analyze_dump,
    events_from_dump,
)
from repro.telemetry.forensics import (
    ForensicsReport,
    analyze,
    build_dag,
    forensic_summary,
    format_forensics,
)
from repro.telemetry.metrics import summarize_run
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.report import aggregate, render_html, write_report
from repro.telemetry.scalability import (
    DEFAULT_SIZES,
    append_bench_history,
    bench_meta,
    run_scalability_sweep,
    scalability_table,
    sublinear_check,
    write_bench_json,
)
from repro.telemetry.status import (
    StatusWriter,
    format_status,
    read_status,
    status_sidecar_path,
)
from repro.telemetry.trace import Telemetry, TraceEvent, TraceRecorder

__all__ = [
    "DEFAULT_SIZES",
    "FlightRecorder",
    "ForensicsReport",
    "SimProfiler",
    "StatusWriter",
    "Telemetry",
    "TraceEvent",
    "TraceRecorder",
    "aggregate",
    "analyze",
    "analyze_dump",
    "append_bench_history",
    "bench_meta",
    "build_dag",
    "events_from_dump",
    "forensic_summary",
    "format_forensics",
    "format_status",
    "read_status",
    "render_html",
    "run_scalability_sweep",
    "scalability_table",
    "status_sidecar_path",
    "sublinear_check",
    "summarize_run",
    "to_chrome_trace",
    "write_bench_json",
    "write_report",
]
