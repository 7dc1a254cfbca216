"""Flight mode: the recorder's keep-the-*last*-N retention policy.

A head-capped trace (``keep="first"``) is the right shape for timeline
work, where the fault roots and the episode structure live at the front,
and the wrong shape for a fleet: in a 100k-schedule sweep a failure
surfaces at the *end* of a run, exactly the window a head cap has already
dropped.  ``keep="last"`` inverts the cap, like an aircraft flight
recorder.  Every fuzz run records with it, and so does the replay a
pooled worker makes of a campaign run whose record needs evidence (a
campaign PASS executes unrecorded), so an oracle violation, a hung or
crashed run or a stray message storm arrives with its tail window of
evidence.

It is a policy of :class:`~repro.telemetry.trace.TraceRecorder`, not a
second recorder: the §9 guard idiom, the no-perturbation rule, global
stream-index eids (an evicted parent is a dangling edge forensics
tolerates) and ``dropped_events`` (the forensics truncation caveat) are
that class's and hold under both policies.  :class:`FlightRecorder` is
only the spelling of the policy that callers outside ``src/`` import.
Recording is not free: the recorder costs roughly a tenth of a recovery
point's wall time (EXPERIMENTS.md has the paired measurement), which is
why a campaign records only its red runs.

This module also owns the dump side of the window:
:func:`events_from_dump` and :func:`analyze_dump` read what
:meth:`TraceRecorder.dump` wrote into a run record.
"""

from repro.telemetry.trace import TraceEvent, TraceRecorder

#: the window a fuzz run, or a campaign run's evidence replay, records
#: into.  Above the ~64k events a 32-node campaign run emits at most, so
#: such a run loses nothing to it and its forensics see the whole run.
DEFAULT_CAPACITY = 200_000


class FlightRecorder(TraceRecorder):
    """``TraceRecorder(sim, max_events=capacity, keep="last")``."""

    def __init__(self, sim=None, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight capacity must be >= 1: %r" % capacity)
        super().__init__(sim, max_events=capacity, keep="last")


def events_from_dump(dump):
    """Rebuild :class:`TraceEvent` objects from a :meth:`TraceRecorder
    .dump` payload, ready for :func:`repro.telemetry.forensics.analyze`
    (pass ``dropped_events=dump["evicted"]`` to keep the truncation
    caveat) or :func:`repro.telemetry.chrome.to_chrome_trace`."""
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
