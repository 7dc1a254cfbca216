"""Resumable JSONL records for campaign runs.

Each completed run appends exactly one JSON object (one line) to the
campaign's results file.  Because every record carries its ``run_index``
and the campaign derives per-run seeds deterministically from the campaign
seed, re-running the same campaign against an existing file simply skips
the indices already recorded — a killed batch resumes where it stopped.
"""

import collections
import dataclasses
import enum
import json
import os


class RunStatus(enum.Enum):
    """Terminal state of one campaign run.

    The one list of outcomes: every count, summary key, report column and
    printed tally iterates this enum in definition order.  Each member is
    its record value plus the key its count goes under in a campaign's
    ``--summary-json``.
    """

    #: recovery contained the schedule, oracle clean
    PASS = "pass", "passed"
    #: run completed but the §5.2 oracle found problems
    FAIL = "fail", "failed"
    #: the worker raised (or died); traceback recorded
    CRASHED = "crashed", "crashed"
    #: watchdog expired / simulation deadlocked
    HUNG = "hung", "hung"

    def __new__(cls, value, summary_key):
        member = object.__new__(cls)
        member._value_ = value
        member.summary_key = summary_key
        return member

    @property
    def is_abort(self):
        """Did the run fail to produce a verdict at all?"""
        return self in (RunStatus.CRASHED, RunStatus.HUNG)


@dataclasses.dataclass
class RunRecord:
    """One line of the campaign JSONL file."""

    run_index: int
    seed: int
    status: RunStatus
    schedule: dict               # FaultSchedule.to_dict()
    problems: list = dataclasses.field(default_factory=list)
    restarts: int = 0
    episodes: int = 0
    error: str = ""              # traceback / watchdog message for aborts
    elapsed_s: float = 0.0       # wall-clock of the worker
    #: per-run hardware metrics summary (telemetry.summarize_run): packet
    #: counters, detector trips, per-phase recovery latency — {} for aborts
    metrics: dict = dataclasses.field(default_factory=dict)
    #: compact forensic summary (telemetry.forensics.forensic_summary):
    #: root causes, blast radii and the containment-audit verdict —
    #: attached to FAIL runs only, {} otherwise
    forensics: dict = dataclasses.field(default_factory=dict)
    #: flight-mode tail window (TraceRecorder.dump) — attached by
    #: flight-mode workers on FAIL/HUNG/CRASHED verdicts and stray-message
    #: storms, {} otherwise; replayable through telemetry.flight
    #: .events_from_dump for forensics/timeline analysis
    flight: dict = dataclasses.field(default_factory=dict)
    #: what a fuzz planner chose and learned (fuzz.engine.FuzzEngine
    #: .account): lineage, op, fingerprint, features, new_features,
    #: escape, injector_skips — {} for a run no planner bred, and then
    #: left out of the JSON so campaign files carry no trace of it
    fuzz: dict = dataclasses.field(default_factory=dict)

    def to_dict(self):
        data = dataclasses.asdict(self)
        data["status"] = self.status.value
        if not self.fuzz:
            del data["fuzz"]
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(run_index=data["run_index"],
                   seed=data["seed"],
                   status=RunStatus(data["status"]),
                   schedule=data["schedule"],
                   problems=list(data.get("problems", ())),
                   restarts=data.get("restarts", 0),
                   episodes=data.get("episodes", 0),
                   error=data.get("error", ""),
                   elapsed_s=data.get("elapsed_s", 0.0),
                   metrics=dict(data.get("metrics", {})),
                   forensics=dict(data.get("forensics", {})),
                   flight=dict(data.get("flight", {})),
                   fuzz=dict(data.get("fuzz", {})))


def append_json_line(path, data):
    """Append one JSON object as one line — the single JSONL writer.

    The trailing newline commits the line atomically enough for resume (a
    torn partial line is ignored by :func:`load_json_lines`).  A file left
    without a final newline by a killed writer gets one first, so the new
    line is never glued onto the torn fragment and lost with it.
    """
    with open(path, "a+b") as handle:
        if handle.tell():
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        handle.write(json.dumps(data, sort_keys=True).encode("utf-8")
                     + b"\n")
        handle.flush()


def load_json_lines(path):
    """Every complete JSON line of a file (missing file: []).

    A line that does not parse is a torn write (writer killed mid-append)
    and is skipped; everything around it is intact.
    """
    rows = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return rows
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                continue
    return rows


def append_record(path, record):
    """Append one :class:`RunRecord` to a campaign file."""
    append_json_line(path, record.to_dict())


def load_records(path):
    """Read all complete records from a campaign file (missing file: [])."""
    records = []
    for data in load_json_lines(path):
        try:
            records.append(RunRecord.from_dict(data))
        except (ValueError, KeyError):
            # A line that parses but is no record; that run will simply
            # be re-executed on resume.
            continue
    return records


def status_counts(records):
    """Runs per outcome, keyed by status value; an absent outcome reads 0."""
    return collections.Counter(record.status.value for record in records)


def format_counts(counts):
    """``"13 pass, 7 fail, 0 crashed, 0 hung"`` from runs per
    :class:`RunStatus`, in the enum's order."""
    return ", ".join("%d %s" % (counts[status], status.value)
                     for status in RunStatus)
