"""The 4->128-node scalability benchmark harness (``repro.cli bench``).

Reproduces the paper's headline scalability result (§5.3/Figure 5.5):
distributed recovery stays fast as the machine grows.  The harness sweeps
machine sizes x fault classes, measures per-phase recovery latency plus
simulator throughput, and emits ``BENCH_scalability.json``:

* one result object per (size, fault class) point with the cumulative
  phase latencies (P1, P1-2, P1-3, total — the Figure 5.5 curves), the
  per-phase durations, and sim throughput (executed events / wall second);
* a ``sublinear`` verdict per fault class: recovery latency must grow
  sub-linearly in node count (latency ratio < node-count ratio across the
  sweep), which is the paper's scalability claim in testable form.

Small per-node memory keeps a 128-node run tractable in CI; the phase
structure — what the sweep measures — is unaffected (P4 simply shrinks
with the cache, exactly as in the paper's own scaled-down figures).
"""

import sys
import time

from repro.analysis.tables import format_series
from repro.core.config import MachineConfig
from repro.core.experiment import start_recovery_run
from repro.faults.models import LINK_FAULT_TYPES, FaultSpec, FaultType
from repro.interconnect.topology import make_topology

#: the paper's Figure 5.5 sweep points (2 replaced by 4: a 2-node machine
#: has a degenerate barrier tree and measures nothing interesting)
DEFAULT_SIZES = (4, 8, 16, 32, 64, 128)

#: memory/cache sizing for sweep machines — small enough that a 128-node
#: point runs in tens of seconds, large enough to exercise every phase
BENCH_MEM_PER_NODE = 64 << 10
BENCH_L2_SIZE = 8 << 10


def default_fault(fault_class, num_nodes, topology):
    """The canonical fault of a class for a sweep point: strike the
    highest-id node (or a link attached to it), farthest from node 0's
    detection probe."""
    fault_type = FaultType(fault_class)
    victim = num_nodes - 1
    if fault_type in LINK_FAULT_TYPES:
        for rid_a, _, rid_b, _ in topology.links():
            if victim in (rid_a, rid_b):
                return FaultSpec(fault_type, (rid_a, rid_b))
        raise ValueError("no link touches node %d" % victim)
    return FaultSpec(fault_type, victim)


def run_scalability_point(num_nodes, fault_class="node_failure",
                          topology="mesh", mem_per_node=BENCH_MEM_PER_NODE,
                          l2_size=BENCH_L2_SIZE, seed=0, fill_fraction=0.25,
                          telemetry=None, run_limit=200_000_000_000):
    """One sweep point: build, fill, inject, recover, measure.

    Returns a JSON-friendly result dict; ``completed`` is False (with an
    ``error``) when recovery never finished within ``run_limit``.
    """
    config = MachineConfig(
        num_nodes=num_nodes, topology=topology, mem_per_node=mem_per_node,
        l2_size=l2_size, seed=seed)
    # A link fault has to name a link before the machine exists; the
    # topology is pure shape, built lazily, so a second one costs nothing.
    fault = default_fault(fault_class, num_nodes,
                          make_topology(topology, num_nodes))
    machine, events_before, wall_start = start_recovery_run(
        config, fault, fill_fraction, run_limit, telemetry=telemetry)

    result = {"nodes": num_nodes, "fault": fault_class,
              "topology": topology, "seed": seed}
    try:
        report = machine.run_until_recovered(limit=run_limit)
    except (TimeoutError, RuntimeError) as exc:
        result["completed"] = False
        result["error"] = "%s: %s" % (type(exc).__name__, exc)
        report = None
    else:
        result["completed"] = (report.complete_time is not None
                               and "P4" in report.phase_ends)

    wall_s = time.perf_counter() - wall_start
    events = machine.sim.events_executed - events_before
    result["sim"] = {
        "events_executed": events,
        "sim_ns": machine.sim.now,
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(events / wall_s) if wall_s > 0 else None,
        # Live count only — cancelled-but-unreclaimed heap entries would
        # otherwise inflate the queue-depth figure by orders of magnitude.
        "pending_events": machine.sim.pending_events,
        "heap_size": machine.sim.heap_size,
        "compactions": machine.sim.compactions,
    }
    if report is not None:
        result["recovery"] = {
            "P1_ms": _cum_ms(report, "P1"),
            "P12_ms": _cum_ms(report, "P2"),
            "P123_ms": _cum_ms(report, "P3"),
            "total_ms": (round(report.total_duration / 1e6, 6)
                         if report.total_duration is not None else None),
            "phase_durations_ms": {
                phase: round(duration / 1e6, 6)
                for phase, duration in sorted(
                    report.phase_durations.items())},
            "restarts": report.restarts,
            "marked_incoherent": report.marked_incoherent,
            "available_nodes": len(report.available_nodes),
        }
    return result


def _cum_ms(report, phase):
    latency = report.phase_duration_from_trigger(phase)
    return None if latency is None else round(latency / 1e6, 6)


def sublinear_check(results):
    """The paper's scalability claim, testable: across one fault class's
    completed sweep points, recovery latency must grow slower than node
    count (largest-vs-smallest latency ratio below the node-count ratio).
    """
    points = sorted(
        ((r["nodes"], r["recovery"]["total_ms"]) for r in results
         if r.get("completed") and r.get("recovery", {}).get("total_ms")),
        key=lambda p: p[0])
    if len(points) < 2:
        return {"ok": False, "reason": "fewer than two completed sizes"}
    (n_min, t_min), (n_max, t_max) = points[0], points[-1]
    latency_ratio = t_max / t_min
    node_ratio = n_max / n_min
    return {
        "ok": latency_ratio < node_ratio,
        "nodes": [n_min, n_max],
        "total_ms": [t_min, t_max],
        "latency_ratio": round(latency_ratio, 3),
        "node_ratio": round(node_ratio, 3),
    }


def run_scalability_sweep(sizes=DEFAULT_SIZES,
                          fault_classes=("node_failure",),
                          topology="mesh", mem_per_node=BENCH_MEM_PER_NODE,
                          l2_size=BENCH_L2_SIZE, seed=0, progress=None):
    """The full sweep; returns the ``BENCH_scalability.json`` payload."""
    results = []
    for fault_class in fault_classes:
        for num_nodes in sizes:
            result = run_scalability_point(
                num_nodes, fault_class=fault_class, topology=topology,
                mem_per_node=mem_per_node, l2_size=l2_size, seed=seed)
            results.append(result)
            if progress is not None:
                progress(result)
    return {
        "version": 1,
        "benchmark": "recovery-scalability",
        "topology": topology,
        "sizes": list(sizes),
        "fault_classes": list(fault_classes),
        "mem_per_node": mem_per_node,
        "l2_size": l2_size,
        "seed": seed,
        "results": results,
        "sublinear": {
            fault_class: sublinear_check(
                [r for r in results if r["fault"] == fault_class])
            for fault_class in fault_classes
        },
    }


def run_bench(sizes=None, max_nodes=128, out="BENCH_scalability.json",
              history=None, **sweep):
    """``repro.cli bench``: run the sweep over ``sizes`` (the default
    sizes up to ``max_nodes`` when None) with one progress line per point
    on stderr, write ``out`` (and one ``history`` line), print the table;
    returns :func:`sweep_ok`."""
    if sizes is None:
        sizes = [n for n in DEFAULT_SIZES if n <= max_nodes]
    if not sizes:
        raise SystemExit("no sweep sizes (check --max-nodes/--sizes)")

    def progress(result):
        recovery = result.get("recovery") or {}
        print("  %3d nodes %-22s total=%s ms wall=%.1fs"
              % (result["nodes"], result["fault"],
                 recovery.get("total_ms", "-"),
                 result["sim"]["wall_s"]), file=sys.stderr)

    payload = run_scalability_sweep(sizes=sizes, progress=progress, **sweep)
    write_bench_json(payload, out)
    if history:
        append_bench_history(payload, history)
    print(scalability_table(payload))
    print("wrote %s" % out)
    return sweep_ok(payload)


def sweep_ok(payload):
    """True when every point completed recovery (the CI gate)."""
    return (bool(payload["results"])
            and all(r.get("completed") for r in payload["results"]))


def scalability_table(payload):
    """Paper-style table(s) of a sweep payload, one per fault class."""
    blocks = []
    for fault_class in payload["fault_classes"]:
        rows = []
        for result in payload["results"]:
            if result["fault"] != fault_class:
                continue
            recovery = result.get("recovery") or {}
            sim = result.get("sim") or {}
            rows.append((
                result["nodes"],
                _fmt(recovery.get("P1_ms")),
                _fmt(recovery.get("P12_ms")),
                _fmt(recovery.get("P123_ms")),
                _fmt(recovery.get("total_ms")),
                sim.get("events_per_sec") or "-",
                "yes" if result.get("completed") else "NO",
            ))
        verdict = payload["sublinear"].get(fault_class, {})
        title = ("Recovery scalability — %s on %s (sub-linear: %s)"
                 % (fault_class, payload["topology"],
                    "yes" if verdict.get("ok") else "NO"))
        blocks.append(format_series(
            title, "nodes",
            ["P1 [ms]", "P1,2 [ms]", "P1,2,3 [ms]", "total [ms]",
             "events/s", "complete"],
            rows))
    return "\n\n".join(blocks)


def _fmt(value):
    return "-" if value is None else "%.2f" % value


def bench_meta():
    """Provenance stamp for committed bench artifacts: git SHA + UTC time.

    The SHA comes from ``git rev-parse HEAD`` when a work tree is
    available, falling back to the ``GITHUB_SHA`` CI variable, then to
    ``"unknown"`` — a bench JSON must stay writable from a tarball.
    """
    import datetime
    import os
    import subprocess
    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10.0, check=False).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha or os.environ.get("GITHUB_SHA") or "unknown",
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def write_bench_json(payload, path):
    """Write a bench payload (``BENCH_*.json``), stamping provenance."""
    import json
    payload.setdefault("meta", bench_meta())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def append_bench_history(payload, path):
    """Append one compact JSONL line to the committed bench history.

    The line keeps the headline figures only (benchmark name, provenance
    meta, seed, sublinear verdicts), so the history stays reviewable in
    diffs while every CI run adds a point to the trend.
    """
    import json
    line = {"benchmark": payload.get("benchmark"),
            "meta": payload.get("meta") or bench_meta()}
    for key in ("sublinear", "seed"):
        if payload.get(key) is not None:
            line[key] = payload[key]
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return path
