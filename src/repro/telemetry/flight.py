"""The always-on flight recorder: a bounded ring of the *last* N events.

:class:`~repro.telemetry.trace.TraceRecorder` bounds memory by keeping the
*first* ``max_events`` events — the right shape for timeline work, where
the episode structure lives at the front, and the wrong shape for a fleet:
in a 100k-schedule sweep a failure surfaces at the *end* of a run, exactly
the window a head-capped trace has already dropped.  The
:class:`FlightRecorder` inverts the cap: a fixed-capacity ring buffer with
O(1) append that always holds the most recent events, like an aircraft
flight recorder.  Campaign and fuzz workers keep one attached even when
full tracing is off, so an oracle violation, a worker crash or a stray
message storm always arrives with its tail window of evidence.

Contract notes:

* the guard idiom is unchanged (DESIGN.md §9): components still hold
  ``self.trace`` and emission sites still cost one identity check when
  detached, so a run with a FlightRecorder detached is bit-identical to
  the seed behaviour — a directed test asserts this;
* ``emit`` never perturbs the simulation: it reads the clock, packs a
  tuple and stores it in the ring — no randomness, no scheduling;
* eids stay **global stream indices** (the count of events ever emitted),
  not ring slots, so ``cause=`` edges remain meaningful after eviction.
  An evicted parent simply becomes a dangling edge, which forensic DAG
  construction already tolerates (:func:`repro.telemetry.forensics
  .build_dag` counts it);
* the hot path stores plain tuples and materializes
  :class:`~repro.telemetry.trace.TraceEvent` objects only when the
  :attr:`events` view is read.  "Always-on" is not free: the ring costs
  roughly a tenth of a recovery point's wall time (EXPERIMENTS.md has
  the paired measurement).

``dropped_events`` counts ring evictions, so the forensics truncation
caveat (``truncated`` / ``dropped_events``) applies to tail windows
exactly as it does to head-capped traces.
"""

from repro.telemetry.trace import TraceEvent, TraceRecorder

#: default ring capacity for campaign/fuzz workers — deep enough to hold
#: a whole recovery episode tail, small enough to be always-on
DEFAULT_CAPACITY = 20_000


class FlightRecorder(TraceRecorder):
    """Bounded ring buffer keeping the last ``capacity`` trace events.

    Drop-in for :class:`TraceRecorder` anywhere a recorder is consumed:
    :attr:`events` yields the retained window oldest-first as
    :class:`TraceEvent` objects, and ``dropped_events`` carries the
    eviction count, so timelines, forensics and the Chrome export all
    work unchanged on the tail window.
    """

    def __init__(self, sim=None, capacity=DEFAULT_CAPACITY):
        # Deliberately not calling TraceRecorder.__init__: ``events`` is
        # a materializing property here, not a list attribute.
        if capacity < 1:
            raise ValueError("flight ring needs capacity >= 1 (got %r)"
                             % (capacity,))
        self._sim = sim
        self.capacity = capacity
        self.max_events = None
        self.enabled = True
        self.total_emitted = 0
        self.dropped_events = 0      # evictions (oldest overwritten)
        self._ring = []              # raw event tuples, see emit()
        self._head = 0               # oldest slot once the ring is full

    def emit(self, category, name, node=None, cause=None, **data):
        """Record one event into the ring; returns its (global) eid."""
        if not self.enabled:
            return None
        eid = self.total_emitted
        self.total_emitted = eid + 1
        entry = (self.now, category, name, node, data, eid, cause)
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(entry)
        else:
            head = self._head
            ring[head] = entry
            self._head = head + 1 if head + 1 < self.capacity else 0
            self.dropped_events += 1
        return eid

    # ------------------------------------------------------------- queries

    @property
    def events(self):
        """Retained window, oldest first, as :class:`TraceEvent` objects."""
        ring = self._ring
        head = self._head
        ordered = ring[head:] + ring[:head] if head else list(ring)
        return [TraceEvent(*entry) for entry in ordered]

    def __len__(self):
        return len(self._ring)

    def clear(self):
        self._ring = []
        self._head = 0
        self.total_emitted = 0
        self.dropped_events = 0

    # --------------------------------------------------------------- dumps

    def dump(self, limit=None):
        """JSON-friendly snapshot of the tail window.

        ``limit`` keeps only the newest ``limit`` events — campaign
        records cap their attached window so a FAIL line stays a line,
        while in-process forensics still sees the whole ring.
        """
        events = self.events
        clipped = 0
        if limit is not None and len(events) > limit:
            clipped = len(events) - limit
            events = events[-limit:]
        return {
            "capacity": self.capacity,
            "total_emitted": self.total_emitted,
            "evicted": self.dropped_events + clipped,
            "events": [event.to_dict() for event in events],
        }


def events_from_dump(dump):
    """Rebuild :class:`TraceEvent` objects from a :meth:`FlightRecorder
    .dump` payload, ready for :func:`repro.telemetry.forensics.analyze`
    (pass ``dropped_events=dump["evicted"]`` to keep the truncation
    caveat) or :func:`repro.telemetry.timeline.build_timelines`."""
    events = []
    for entry in dump.get("events", ()):
        cause = entry.get("cause")
        if isinstance(cause, list):
            cause = tuple(cause)
        events.append(TraceEvent(
            entry.get("time", 0.0), entry.get("category"),
            entry.get("name"), entry.get("node"),
            entry.get("data") or {}, entry.get("eid"), cause))
    return events


def analyze_dump(dump):
    """Forensic audit of a dumped tail window (truncation caveat intact)."""
    from repro.telemetry.forensics import analyze
    return analyze(events_from_dump(dump),
                   dropped_events=dump.get("evicted", 0))
