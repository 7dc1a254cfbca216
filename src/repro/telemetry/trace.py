"""The low-overhead event bus: TraceRecorder and the Telemetry bundle.

Design contract (the "disabled-by-default overhead" rule, DESIGN.md §9):

* every instrumented component initializes ``self.trace = None``;
* every emission site is written as::

      tr = self.trace
      if tr is not None:
          tr.emit("pkt", "drop", node=self.router_id, reason="link")

  so with telemetry off the *entire* cost is one attribute load and one
  identity comparison — no call, no argument packing, no event object;
* recording must never perturb the simulation: :meth:`TraceRecorder.emit`
  reads the clock and appends to one sequence, draws no randomness and
  schedules nothing.  A directed test asserts a traced run and an untraced run
  produce bit-identical recovery reports.

Event taxonomy (category / name):

========== ===================== ==========================================
category   names                 emitted by
========== ===================== ==========================================
pkt        send, recv, drop      NodeInterface (send/recv), Router (drop)
detect     timeout, nak_overflow MAGIC failure detectors (§4.2)
           truncated
recovery   trigger               MAGIC -> RecoveryManager fan-in
episode    begin, restart, end   RecoveryManager
phase      enter, exit           recovery agents via the manager (P1..P4)
round      done                  agent dissemination loop (§4.3)
barrier    done                  RecoveryComm combining-tree barrier (§4.4)
fault      inject, skip          FaultInjector
========== ===================== ==========================================

There is one recorder.  What bounds its memory is a *retention policy*,
not a second class: ``TraceRecorder(max_events=N, keep="first")`` stores
the head of the stream in a list, ``keep="last"`` the tail in a
``deque(maxlen=N)``; eids, ``total_emitted``, ``dropped_events`` and
:meth:`TraceRecorder.dump` mean the same under both.

Events optionally carry a *causal edge* (DESIGN.md §11): ``emit`` accepts
``cause=<parent eid or tuple of eids>`` and returns the new event's eid so
callers can thread provenance through packets and handler fan-out.  The
forensics module (:mod:`repro.telemetry.forensics`) reconstructs the
per-fault causal DAG from those edges.
"""

from collections import deque
from typing import NamedTuple, Optional, Union


class TraceEvent(NamedTuple):
    """One structured event: (time ns, category, name, node, data).

    ``eid`` is the event's index in its recorder's stream; ``cause`` is
    the eid of the event that caused it (or a tuple of eids for merge
    points), forming the causal DAG edges used by forensics.  Both are
    None for events built without provenance.
    """

    time: float
    category: str
    name: str
    node: Optional[int]
    data: dict
    eid: Optional[int] = None
    cause: Union[int, tuple, None] = None

    @property
    def key(self):
        return "%s.%s" % (self.category, self.name)

    def to_dict(self):
        cause = self.cause
        if isinstance(cause, tuple):
            cause = list(cause)
        return {"time": self.time, "category": self.category,
                "name": self.name, "node": self.node, "data": self.data,
                "eid": self.eid, "cause": cause}


class TraceRecorder:
    """Collects :class:`TraceEvent` objects from instrumented components.

    ``max_events`` bounds memory on long runs and ``keep`` says which end
    of the stream survives the bound: ``"first"`` stops storing once full
    (the head carries the fault roots and the episode structure — the
    shape timelines and forensics want), ``"last"`` evicts the oldest (the
    tail carries the failure — the shape a fleet wants, see
    :mod:`repro.telemetry.flight`).  Under both, an eid is the event's
    index in the whole stream, so ``cause=`` edges stay meaningful when
    either end is gone: a missing parent is a dangling edge, which
    :func:`repro.telemetry.forensics.build_dag` counts and tolerates.
    """

    def __init__(self, sim=None, max_events=None, keep="first"):
        if keep not in ("first", "last"):
            raise ValueError("keep must be 'first' or 'last' (got %r)"
                             % (keep,))
        self._sim = sim
        self.max_events = max_events
        self.keep = keep
        self.clear()

    def bind(self, sim):
        """Attach the simulator whose clock stamps the events."""
        self._sim = sim
        return self

    @property
    def now(self):
        return self._sim.now if self._sim is not None else 0.0

    def emit(self, category, name, node=None, cause=None, **data):
        """Record one event; returns its eid (None when not recorded).

        ``cause`` is an optional causal-parent eid (or tuple of eids) as
        returned by a previous ``emit``; forensics reconstructs the causal
        DAG from these edges.  Events a full ``keep="first"`` recorder
        turns away return None, so downstream edges simply dangle.
        """
        eid = self.total_emitted
        self.total_emitted = eid + 1
        events = self._events
        if len(events) == self.max_events and self.keep == "first":
            return None
        # A full keep="last" deque evicts its oldest entry on append.
        events.append(
            TraceEvent(self.now, category, name, node, data, eid, cause))
        return eid

    # ------------------------------------------------------------- queries

    @property
    def events(self):
        """The retained events, oldest first."""
        return list(self._events)

    @property
    def dropped_events(self):
        """Events emitted but not retained, whichever end lost them."""
        return self.total_emitted - len(self._events)

    def __len__(self):
        return len(self._events)

    def events_of(self, category, name=None):
        return [event for event in self._events
                if event.category == category
                and (name is None or event.name == name)]

    def count(self, category, name=None):
        return len(self.events_of(category, name))

    def clear(self):
        if self.keep == "last":
            self._events = deque(maxlen=self.max_events)
        else:
            self._events = []
        self.total_emitted = 0

    def dump(self, limit=None):
        """JSON-friendly snapshot of the retained events.

        ``limit`` keeps only the newest ``limit`` of them — campaign
        records cap their attached window so a FAIL line stays a line,
        while in-process forensics still sees everything retained.
        """
        events = self.events
        clipped = 0 if limit is None else max(0, len(events) - limit)
        return {
            "capacity": self.max_events,
            "total_emitted": self.total_emitted,
            "evicted": self.dropped_events + clipped,
            "events": [event.to_dict() for event in events[clipped:]],
        }


class Telemetry:
    """The bundle a :class:`~repro.core.machine.FlashMachine` accepts.

    ``Telemetry()`` records every event;
    ``Telemetry(max_events=N)`` keeps the *first* N events;
    ``Telemetry(trace=False, flight=N)`` keeps the *last* N events (what
    a fuzz run and a red campaign run's replay record,
    :mod:`repro.telemetry.flight`: a failure arrives with its tail
    window).
    """

    def __init__(self, trace=True, max_events=None, flight=None):
        if flight is not None:
            from repro.telemetry.flight import FlightRecorder
            self.recorder = FlightRecorder(capacity=flight)
        elif trace:
            self.recorder = TraceRecorder(max_events=max_events)
        else:
            self.recorder = None

    def bind(self, sim):
        if self.recorder is not None:
            self.recorder.bind(sim)
        return self

    @property
    def events(self):
        return self.recorder.events if self.recorder is not None else []
