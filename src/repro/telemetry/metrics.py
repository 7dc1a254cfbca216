"""Metrics: the histogram and the per-run summary.

* :class:`Histogram` is the power-of-two bucketed distribution the
  summary, the availability table and the fuzz report share;
* :func:`summarize_run` is the one post-run sweep of the statistics the
  hardware model keeps anyway (RouterStats, MagicStats, RecoveryReports,
  the simulator's executed-event counter) — zero cost during the run —
  into the compact JSON-friendly summary that campaign records carry.
"""


class Histogram:
    """Power-of-two bucketed histogram plus count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets = {}      # bucket upper bound (2**k) -> count

    def observe(self, value):
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bound = 1
        while bound < value:
            bound <<= 1
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Estimated q-th percentile (0 < q <= 100).

        Walks the cumulative bucket counts and returns the upper bound of
        the bucket containing the target rank, clipped to the observed max
        — accurate to within one power of two, which is all the bucketing
        keeps.  Returns None for an empty histogram.
        """
        if not self.count:
            return None
        target = self.count * q / 100.0
        cumulative = 0
        for bound in sorted(self.buckets):
            cumulative += self.buckets[bound]
            if cumulative >= target:
                return min(bound, self.max)
        return self.max

    def percentiles(self):
        return {"p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99)}

    def snapshot(self):
        snap = {"count": self.count, "sum": self.total, "min": self.min,
                "max": self.max, "mean": self.mean,
                "buckets": dict(sorted(self.buckets.items()))}
        snap.update(self.percentiles())
        return snap


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
    recovery = {
        "episodes": len(manager.reports),
        "restarts": sum(report.restarts for report in manager.reports),
        "marked_incoherent": sum(report.marked_incoherent
                                 for report in manager.reports),
    }
    if manager.reports:
        last = manager.reports[-1]
        recovery["phase_ms"] = {
            phase: round(duration / 1e6, 6)
            for phase, duration in sorted(last.phase_durations.items())
        }
        if last.total_duration is not None:
            recovery["total_ms"] = round(last.total_duration / 1e6, 6)
        recovery["available_nodes"] = len(last.available_nodes)
        latencies = Histogram()
        for report in manager.reports:
            if report.total_duration is not None:
                latencies.observe(report.total_duration)
        if latencies.count:
            recovery["total_ms_percentiles"] = {
                key: round(value / 1e6, 6)
                for key, value in latencies.percentiles().items()
            }

    from repro.telemetry.availability import availability_from_reports

    return {
        "sim_ns": machine.sim.now,
        "sim_events": machine.sim.events_executed,
        "packets": packets,
        "detectors": detectors,
        "naks": naks,
        "recovery": recovery,
        "availability": availability_from_reports(
            manager.reports, machine.sim.now, len(machine.nodes)),
    }
