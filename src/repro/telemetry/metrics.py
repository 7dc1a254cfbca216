"""Metrics: containment-time percentiles and the per-run summary.

* :func:`percentile` is the nearest-rank percentile the fleet report's
  containment times and the fuzz report share, so every reported
  percentile is an observed duration;
* :func:`summarize_run` is the one post-run sweep of the statistics the
  hardware model keeps anyway (RouterStats, MagicStats, RecoveryReports,
  the simulator's executed-event counter) — zero cost during the run —
  into the compact JSON-friendly summary that campaign records carry.
  Its ``recovery.timeline`` is the one per-episode account of where
  recovery time went; :func:`containment_times_ms` reads it back.
"""

import math


def percentile(ordered, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of sorted values: the
    smallest value with at least q % of the values at or below it, or
    None when there are none."""
    if not ordered:
        return None
    return ordered[math.ceil(len(ordered) * q / 100) - 1]


# ------------------------------------------------------------ run summary

#: RouterStats ``dropped_<reason>`` counters, in record order
_DROP_REASONS = ("failed", "unroutable", "discard", "stall", "link",
                 "intermittent")


def summarize_run(machine):
    """Compact per-run summary carried by campaign records.

    Everything here comes from counters the model keeps anyway, so the
    summary costs one sweep at the end of the run — nothing on the hot
    path, which is what lets campaigns collect it by default.
    """
    dropped = {}
    packets = {"forwarded": 0, "delivered": 0}
    for router in machine.network.routers:
        stats = router.stats
        packets["forwarded"] += stats.forwarded
        packets["delivered"] += stats.delivered_local
        for reason in _DROP_REASONS:
            count = getattr(stats, "dropped_" + reason)
            if count:
                dropped[reason] = dropped.get(reason, 0) + count
    packets["dropped"] = dropped

    detectors = {"timeouts": 0, "nak_overflows": 0, "truncated": 0}
    naks = {"sent": 0, "received": 0}
    for node in machine.nodes:
        stats = node.magic.stats
        detectors["timeouts"] += stats.timeouts
        detectors["nak_overflows"] += stats.nak_overflows
        detectors["truncated"] += stats.truncated_received
        naks["sent"] += stats.naks_sent
        naks["received"] += stats.naks_received

    manager = machine.recovery_manager
    episodes = list(manager.reports)
    if manager.in_progress:
        episodes.append(manager.report)
    recovery = {
        "episodes": len(manager.reports),
        "restarts": sum(report.restarts for report in manager.reports),
        "marked_incoherent": sum(report.marked_incoherent
                                 for report in manager.reports),
        "timeline": [_episode_entry(report) for report in episodes],
    }
    if manager.reports:
        last = manager.reports[-1]
        recovery["phase_ms"] = {
            phase: _ms(duration)
            for phase, duration in sorted(last.phase_durations.items())
        }
        if last.total_duration is not None:
            recovery["total_ms"] = _ms(last.total_duration)
        recovery["available_nodes"] = len(last.available_nodes)

    return {
        "sim_ns": machine.sim.now,
        "sim_events": machine.sim.events_executed,
        "packets": packets,
        "detectors": detectors,
        "naks": naks,
        "recovery": recovery,
    }


def _ms(ns):
    return round(ns / 1e6, 6)


def _episode_entry(report):
    """One episode of ``recovery.timeline``: its trigger, each §4.1
    restart, and — if it completed — its total, which ends with the pass
    ``phase_ms`` describes.  Times are simulated ms on the machine's
    clock."""
    total = report.total_duration
    return {
        "trigger_ms": _ms(report.trigger_time),
        "total_ms": None if total is None else _ms(total),
        "shutdown_nodes": sorted(report.shutdown_nodes),
        "restarts": [{"at_ms": _ms(at), "node": node, "reason": reason}
                     for at, node, reason in report.restart_log],
    }


def containment_times_ms(metrics):
    """Durations (ms) of the completed episodes in one run's summary —
    the one reading of containment time, for the fleet report and the
    fuzzer alike."""
    timeline = ((metrics or {}).get("recovery") or {}).get("timeline", ())
    return [episode["total_ms"] for episode in timeline
            if episode["total_ms"] is not None]
