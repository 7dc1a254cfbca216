"""Fault forensics: causal DAGs, blast radii and containment audits.

The paper's central claim is *observational*: a fault may destroy state
inside its failure unit (cell), but no effect of it escapes the cell except
over sanctioned channels — the dedicated recovery lanes (§4.1) and
firewall-permitted coherence paths (§3.3).  The oracle checks the claim by
comparing end states; this module checks it by *watching the propagation*:

1. **Causal DAG** — every trace event may carry a ``cause`` edge (the eid
   of its causal parent, or a tuple of eids at merge points).  Packets
   thread these edges hop by hop (NI send -> NI recv -> handler fan-out),
   the injector mints a root-cause id ("F0", "F1", ...) per injected fault,
   and components tainted by a fault merge its lineage into everything they
   touch.  :func:`build_dag` reconstructs the children map.

2. **Blast radius** — everything causally downstream of a ``fault.inject``
   root, minus *repair*: the recovery machinery's own descendants (episode
   events, recovery-lane traffic, P4 writebacks) are the cure, not the
   disease.  The radius reports the nodes, memory lines and packets the
   fault actually reached.

3. **Containment audit** — each remaining fault-descendant packet event
   observed *outside* the fault's cell is classified.  Packets destroyed at
   the boundary (drops, sinks, NAK/bus-error terminations) are containment
   working as designed.  A state-transferring event outside the cell — an
   exclusive grant issued by an outside home to a tainted requester, dirty
   data absorbed from a tainted owner, an invalidation fanning out — is a
   **violation**: the observational signature of the escape the oracle
   would flag as corruption.  Verdict: ``contained`` iff no violations.

Graceful degradation: when the recorder's event cap was hit, descendant
events may be missing and cause edges may dangle.  The report carries
``truncated``/``dropped_events`` so a "contained" verdict from a truncated
trace can be treated with suspicion.

Timeout attribution caveat: a memory-op timeout observes nothing (§4.2),
so its cause edge uses :meth:`Network.fault_lineage_of` — exact for single
faults, best-effort ("latest injection") for overlapping ones.
"""

import json
import sys

#: lanes on which fault-descendant traffic is sanctioned (§4.1)
RECOVERY_LANES = frozenset({"RECOVERY_A", "RECOVERY_B"})

#: containment responses: the protocol terminating an access (§3.1-§3.3)
TERMINATION_KINDS = frozenset({"NAK", "BUS_ERROR_REPLY"})

#: recovery-machinery kinds that ride normal lanes
MACHINERY_KINDS = frozenset({"FLUSH_DONE"})

#: state transfer *into* a requester: write-ownership grants (§3.3)
GRANT_KINDS = frozenset({"DATA_EXCL"})

#: state transfer *out of* a tainted node absorbed elsewhere
ABSORB_KINDS = frozenset({"PUT", "SHARING_WB", "OWNERSHIP_XFER",
                          "UC_WRITE"})

#: cache-state mutation fanned out by a home on behalf of a requester
INVALIDATION_KINDS = frozenset({"INVAL", "FWD_GETX"})


def _kind_name(kind):
    """'MessageKind.GETX' -> 'GETX'; router string kinds pass through."""
    if kind is None:
        return None
    return kind.rsplit(".", 1)[-1]


def _parents(cause):
    if cause is None:
        return ()
    if isinstance(cause, tuple):
        return cause
    return (cause,)


def build_dag(events):
    """Children map of the causal DAG: eid -> [child eids].

    Returns ``(children, dangling)`` where ``dangling`` counts cause edges
    whose parent is not among ``events`` (a windowed or truncated trace).
    """
    known = {event.eid for event in events if event.eid is not None}
    children = {}
    dangling = 0
    for event in events:
        if event.eid is None:
            continue
        for parent in _parents(event.cause):
            if parent in known:
                children.setdefault(parent, []).append(event.eid)
            else:
                dangling += 1
    return children, dangling


def _descendants(children, roots):
    """All eids reachable from ``roots`` (roots excluded), and the
    deepest depth the walk reaches them at (0 when there are none)."""
    seen = set()
    deepest = 0
    frontier = [(eid, 0) for eid in roots]
    while frontier:
        eid, depth = frontier.pop()
        if depth > deepest:
            deepest = depth
        for child in children.get(eid, ()):
            if child not in seen:
                seen.add(child)
                frontier.append((child, depth + 1))
    return seen, deepest


def _classify(event):
    """Forensic class of one event (DESIGN.md §11 edge taxonomy)."""
    if event.category != "pkt":
        return "machinery"
    data = event.data
    if data.get("lane") in RECOVERY_LANES:
        return "recovery-lane"
    if event.name in ("drop", "sink"):
        return "destroyed"
    if data.get("truncated"):
        return "truncated"
    kind = _kind_name(data.get("kind"))
    if kind in TERMINATION_KINDS:
        return "terminated"
    if kind in MACHINERY_KINDS:
        return "machinery"
    return "data"


def _violation_reason(event):
    """Why a data-class packet event outside the cell is an escape, or
    None when it is only an (informational) boundary crossing."""
    kind = _kind_name(event.data.get("kind"))
    if event.name == "send" and kind in GRANT_KINDS:
        return "write-grant escape: %s issued outside the failed cell" % kind
    if event.name == "send" and kind in INVALIDATION_KINDS:
        return ("invalidation escape: %s fanned out outside the failed "
                "cell" % kind)
    if event.name == "recv" and kind in ABSORB_KINDS:
        return ("dirty-data escape: %s absorbed outside the failed cell"
                % kind)
    return None


class FaultForensics:
    """Blast radius and audit for one injected fault."""

    def __init__(self, root, inject_event):
        self.root = root
        self.inject_eid = inject_event.eid
        self.time = inject_event.time
        self.fault = inject_event.data.get("fault")
        self.target = inject_event.data.get("target")
        self.cell = list(inject_event.data.get("cell") or ())
        self.blast_nodes = []
        self.blast_lines = []
        self.blast_packets = 0
        self.blast_events = 0
        self.repair_events = 0
        self.boundary_events = 0     # descendants destroyed/terminated
        self.depth = 0               # causal-DAG depth below the inject
        self.crossings = []          # informational out-of-cell arrivals
        self.violations = []

    @property
    def verdict(self):
        return "escape" if self.violations else "contained"

    def to_dict(self):
        return {
            "root": self.root,
            "fault": self.fault,
            "target": self.target,
            "cell": self.cell,
            "time": self.time,
            "inject_eid": self.inject_eid,
            "blast": {
                "nodes": self.blast_nodes,
                "lines": self.blast_lines,
                "packets": self.blast_packets,
                "events": self.blast_events,
            },
            "repair_events": self.repair_events,
            "boundary_events": self.boundary_events,
            "crossings": self.crossings,
            "violations": self.violations,
            "verdict": self.verdict,
        }


class ForensicsReport:
    """The full audit of one traced run."""

    def __init__(self, faults, total_events, dropped_events, dangling,
                 error=None):
        self.faults = faults
        self.total_events = total_events
        self.dropped_events = dropped_events
        self.dangling_edges = dangling
        self.truncated = dropped_events > 0
        self.error = error      # what a run that did not finish raised

    @property
    def verdict(self):
        """A violation is an ``escape``; short of one, a run that raised
        is ``unfinished``: the events it got to prove nothing contained."""
        if any(fault.verdict == "escape" for fault in self.faults):
            return "escape"
        if self.error is not None:
            return "unfinished"
        return "contained" if self.faults else "no-fault"

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "error": self.error,
            "truncated": self.truncated,
            "dropped_events": self.dropped_events,
            "dangling_edges": self.dangling_edges,
            "total_events": self.total_events,
            "faults": [fault.to_dict() for fault in self.faults],
        }


def _event_ref(event):
    return {"eid": event.eid, "time": event.time, "event": event.key,
            "node": event.node, "kind": _kind_name(event.data.get("kind")),
            "line": event.data.get("line"), "uid": event.data.get("uid")}


def analyze(source, dropped_events=None, error=None):
    """Run the forensic audit; returns a :class:`ForensicsReport`.

    ``source`` is a :class:`~repro.telemetry.trace.TraceRecorder` or a
    plain iterable of :class:`TraceEvent`; ``error`` as in the report.
    """
    events = getattr(source, "events", source)
    if dropped_events is None:
        dropped_events = getattr(source, "dropped_events", 0)
    by_eid = {event.eid: event for event in events if event.eid is not None}
    children, dangling = build_dag(events)

    # Episode machinery descendants (of any episode.begin) form the repair
    # set: recovery pings, reprogramming, P4 writebacks.  They descend from
    # the fault *through* its detection, and are excluded from the radius —
    # repair is not contamination.
    episode_roots = [event.eid for event in events
                     if event.category == "episode"
                     and event.name == "begin" and event.eid is not None]
    repair = _descendants(children, episode_roots)[0] | set(episode_roots)

    faults = []
    for event in events:
        if event.category != "fault" or event.name != "inject":
            continue
        if event.eid is None:
            continue
        fault = FaultForensics(event.data.get("root"), event)
        cell = set(fault.cell)
        nodes, lines, packets = set(), set(), set()

        descendants, fault.depth = _descendants(children, [event.eid])
        for eid in sorted(descendants):
            desc = by_eid[eid]
            cls = _classify(desc)
            if cls == "machinery":
                continue
            if eid in repair or cls == "recovery-lane":
                fault.repair_events += 1
                continue
            fault.blast_events += 1
            if desc.node is not None:
                nodes.add(desc.node)
            line = desc.data.get("line")
            if line is not None:
                lines.add(line)
            uid = desc.data.get("uid")
            if uid is not None:
                packets.add(uid)
            outside = desc.node is not None and desc.node not in cell
            if not outside:
                continue
            if cls in ("destroyed", "truncated", "terminated"):
                # Destroyed at/inside the boundary: containment at work.
                fault.boundary_events += 1
                continue
            reason = _violation_reason(desc)
            ref = _event_ref(desc)
            if reason is None:
                fault.crossings.append(ref)
            else:
                ref["reason"] = reason
                fault.violations.append(ref)

        fault.blast_nodes = sorted(nodes)
        fault.blast_lines = sorted(lines)
        fault.blast_packets = len(packets)
        faults.append(fault)

    return ForensicsReport(faults, len(events), dropped_events, dangling,
                           error)


def forensic_summary(source):
    """Compact dict for campaign run records: root causes, blast radius
    and audit verdict per fault, plus the truncation caveat."""
    report = analyze(source)
    return {
        "verdict": report.verdict,
        "truncated": report.truncated,
        # For a head-capped trace: events silently dropped at the tail;
        # for a flight ring: oldest events evicted.  Either way a
        # "contained" verdict over a truncated window deserves suspicion.
        "dropped_events": report.dropped_events,
        "analyzed_events": report.total_events,
        "faults": [
            {
                "root": fault.root,
                "fault": fault.fault,
                "target": fault.target,
                "cell": fault.cell,
                "blast_nodes": fault.blast_nodes,
                "blast_events": fault.blast_events,
                "violations": len(fault.violations),
                "verdict": fault.verdict,
            }
            for fault in report.faults
        ],
    }


def format_forensics(report):
    """Human-readable audit report."""
    lines = []
    lines.append("containment audit: %s%s" % (
        report.verdict,
        "  [TRUNCATED TRACE: %d events dropped]" % report.dropped_events
        if report.truncated else ""))
    lines.append("  events analyzed: %d   dangling cause edges: %d"
                 % (report.total_events, report.dangling_edges))
    for fault in report.faults:
        lines.append("fault %s: %s target=%s cell=%s @%.0fns -> %s"
                     % (fault.root, fault.fault, fault.target,
                        fault.cell, fault.time, fault.verdict))
        lines.append("  blast radius: %d events, %d packets, "
                     "nodes=%s lines=%s"
                     % (fault.blast_events, fault.blast_packets,
                        fault.blast_nodes,
                        ["0x%x" % l for l in fault.blast_lines]))
        lines.append("  repair descendants: %d   destroyed at boundary: %d"
                     "   benign crossings: %d"
                     % (fault.repair_events, fault.boundary_events,
                        len(fault.crossings)))
        for violation in fault.violations:
            lines.append("  VIOLATION @%.0fns node=%d %s uid=%s line=%s"
                         % (violation["time"], violation["node"],
                            violation["reason"], violation["uid"],
                            "0x%x" % violation["line"]
                            if violation["line"] is not None else None))
    return "\n".join(lines)


def write_run_evidence(recorder, path, label, episode=None, error=None):
    """``repro.cli validate --trace``: write the Chrome trace to ``path``
    (only ``episode``'s events, a RecoveryReport, when given) and the
    whole run's audit to ``<path>.forensics.json`` as a campaign names
    its own; print the audit; returns the :class:`ForensicsReport`, which
    a run that raised ``error`` leaves ``unfinished``."""
    from repro.telemetry.chrome import write_chrome_trace
    events = recorder.events
    if episode is not None:
        events = [event for event in events
                  if episode.trigger_time <= event.time
                  <= episode.complete_time]
    write_chrome_trace(events, path, label=label,
                       dropped_events=recorder.dropped_events)
    report = analyze(recorder, error=error)
    audit_path = path + ".forensics.json"
    with open(audit_path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("%d events (%d dropped) -> %s; audit -> %s"
          % (len(events), recorder.dropped_events, path, audit_path))
    print(format_forensics(report))
    if recorder.dropped_events:
        print("WARNING: trace truncated — %d event(s) past the "
              "--max-events cap were dropped; the Chrome export and the "
              "audit miss the run's tail" % recorder.dropped_events,
              file=sys.stderr)
    return report
