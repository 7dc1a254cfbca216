"""Crash-isolated campaign runner.

Every run executes in a persistent ``multiprocessing`` worker of a
:class:`~repro.campaign.pool.BatchWorkerPool` with a wall-clock watchdog,
so a simulator bug found by an aggressive schedule — a Python crash, an
infinite event loop, a drained event heap — is *data* (a
``CRASHED``/``HUNG`` record) rather than the death of the whole batch.
The pool's :meth:`~repro.campaign.pool.BatchWorkerPool.drive` is the one
driving loop; :class:`CampaignRunner` is the one harness around it — task
source (planned runs), result sink (records, JSONL, status heartbeat),
outcome counts and resume — for generator campaigns, fixed-schedule
replays and fuzz sessions alike.  The console helpers at the bottom are
what ``repro.cli campaign`` and ``repro.cli fuzz`` print per record.

Determinism and resume:

* per-run seeds derive from the campaign seed via BLAKE2b
  (:func:`derive_run_seed`), so run *i* of campaign seed *s* is the same
  experiment on every machine and every re-run;
* each finished run appends one JSONL record
  (:mod:`repro.campaign.records`); re-running the same campaign against an
  existing results file skips the already-recorded run indices.
"""

import dataclasses
import hashlib
import json
import random
import sys
import time

from repro.campaign.pool import BatchWorkerPool
from repro.campaign.records import (
    RunRecord,
    RunStatus,
    append_record,
    format_counts,
    load_records,
    status_counts,
)
from repro.campaign.schedule import FaultSchedule, make_schedule
from repro.campaign.shrink import repro_command


def derive_run_seed(campaign_seed, run_index):
    """Deterministic 63-bit per-run seed (stable across processes, unlike
    salted ``hash()``)."""
    digest = hashlib.blake2b(
        ("%d:%d" % (campaign_seed, run_index)).encode("ascii"),
        digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclasses.dataclass
class CampaignSummary:
    """Aggregate of a finished (or resumed-and-finished) campaign."""

    total: int
    #: runs per :class:`RunStatus`, every status present
    counts: dict
    records: list

    @classmethod
    def from_records(cls, records):
        counts = status_counts(records)
        return cls(total=len(records),
                   counts={status: counts[status.value]
                           for status in RunStatus},
                   records=list(records))

    @property
    def ok(self):
        """True when every run reached a verdict (no batch-level aborts)."""
        return not any(self.counts[status] for status in RunStatus
                       if status.is_abort)

    def failures(self):
        return [record for record in self.records
                if record.status is not RunStatus.PASS]

    def to_dict(self):
        """The counts and the verdict, without the records."""
        data = {"total": self.total}
        data.update((status.summary_key, self.counts[status])
                    for status in RunStatus)
        data["ok"] = self.ok
        return data

    def __str__(self):
        return "campaign: %d runs — %s" % (self.total,
                                            format_counts(self.counts))


class CampaignRunner:
    """Run ``runs`` schedules, each crash-isolated, streaming JSONL records.

    This class is the one run pipeline: it alone opens the worker pool,
    loads and appends run records, owns the status sidecar, counts
    outcomes and resumes.  What varies is where run *i*'s
    ``(seed, schedule)`` comes from:

    * ``kind`` names a generator from
      :data:`~repro.campaign.schedule.SCHEDULE_GENERATORS`;
    * a fixed ``schedule`` replays one exact scenario every run;
    * a ``planner`` (the fuzz engine) chooses from what earlier runs
      taught it.  The runner calls ``planner.plan_run(self, run_index)``
      for the ``(seed, schedule)``, ``planner.account(record, coverage)``
      with every finished record before it is written (and
      ``planner.account(record)`` with every recorded one, in file
      order, on resume), and ``planner.status_extras()`` for the
      heartbeat.  Workers of a planned campaign extract coverage.

    ``wall_clock_s`` budgets the campaign by time instead of ``runs``.
    ``status_path`` overrides the sidecar's place beside ``out_path``.
    ``reuse_machines`` is accepted for old callers and ignored: every
    campaign runs on the persistent worker pool.  ``telemetry_mode`` is
    accepted for old callers and ignored: the worker decides whether a
    run records (:func:`~repro.campaign.pool._execute_schedule_run`: a
    fuzz run always, a campaign run only in the replay of a red one).
    """

    def __init__(self, kind="random-multi", runs=50, campaign_seed=0,
                 num_nodes=8, topology="mesh", schedule=None, out_path=None,
                 timeout_s=300.0, run_limit=60_000_000_000, jobs=1,
                 mem_per_node=64 << 10, l2_size=8 << 10, progress=None,
                 reuse_machines=False, telemetry_mode="trace", planner=None,
                 wall_clock_s=None, status_path=None):
        self.kind = kind
        self.runs = runs
        self.campaign_seed = campaign_seed
        self.num_nodes = num_nodes
        self.topology = topology
        self.fixed_schedule = schedule
        self.out_path = out_path
        self.timeout_s = timeout_s
        self.run_limit = run_limit
        self.jobs = max(1, jobs)
        # Campaigns trade machine size for run count: a small memory/cache
        # still exercises every protocol path, and a run finishes in
        # seconds instead of minutes.
        self.mem_per_node = mem_per_node
        self.l2_size = l2_size
        self.progress = progress
        self.planner = planner
        self.wall_clock_s = wall_clock_s
        self.status_path = status_path

    # ------------------------------------------------------------ scheduling

    def plan_run(self, run_index):
        """The (seed, schedule) of run ``run_index`` — pure and stable for
        generator and replay campaigns.

        In replay mode (a fixed schedule) the campaign seed is used
        *literally* for every run, so a failure's printed repro command —
        which carries the failing run's own derived seed — reproduces that
        exact run.
        """
        if self.planner is not None:
            return self.planner.plan_run(self, run_index)
        if self.fixed_schedule is not None:
            return self.campaign_seed, self.fixed_schedule
        seed = derive_run_seed(self.campaign_seed, run_index)
        rng = random.Random(seed)
        return seed, make_schedule(self.kind, rng, num_nodes=self.num_nodes,
                                   topology=self.topology)

    def _in_budget(self, run_index, started):
        """Is run ``run_index`` the campaign's to run (or to keep, when
        loading): inside ``runs``, or with ``wall_clock_s`` any index
        while time remains since ``started``?"""
        if self.wall_clock_s is not None:
            return time.monotonic() - started < self.wall_clock_s
        return run_index < self.runs

    def _pending(self, records, started):
        """Unrecorded run indices, lowest first, while the budget lasts —
        a hole left by a killed session is filled before anything new."""
        run_index = 0
        while self._in_budget(run_index, started):
            if run_index not in records:
                yield run_index
            run_index += 1

    # --------------------------------------------------------------- driving

    def _status_writer(self):
        """Heartbeat sidecar next to the records file (None without one)."""
        if not self.out_path:
            return None
        from repro.telemetry.status import StatusWriter
        return StatusWriter(
            self.status_path or self.out_path + ".status.json",
            kind="campaign" if self.planner is None else "fuzz",
            total=None if self.wall_clock_s is not None else self.runs)

    def run(self):
        """Execute all pending runs; returns a :class:`CampaignSummary`."""
        started = time.monotonic()
        planner = self.planner
        records = {}
        if self.out_path:
            # File order is the order a live session accounted them in.
            for record in load_records(self.out_path):
                if self._in_budget(record.run_index, started):
                    records[record.run_index] = record
                    if planner is not None:
                        planner.account(record)
        status = self._status_writer()
        counts = status_counts(records.values())
        plans = {}

        pending = self._pending(records, started)

        def next_task():
            run_index = next(pending, None)
            if run_index is None:
                return None
            seed, schedule = self.plan_run(run_index)
            plans[run_index] = (seed, schedule)
            return run_index, schedule.to_dict(), seed

        def on_result(run_index, payload):
            seed, schedule = plans.pop(run_index)
            record = self._record(run_index, seed, schedule, payload)
            if planner is not None:
                planner.account(record, payload.get("coverage", {}))
            records[run_index] = record
            counts[record.status.value] += 1
            if self.out_path:
                append_record(self.out_path, record)
            if self.progress is not None:
                self.progress(record)

        def beat(**state):
            if status is not None:
                status.update(
                    done=len(records), counts=counts,
                    extras=None if planner is None
                    else planner.status_extras(), **state)

        with BatchWorkerPool(jobs=self.jobs, timeout_s=self.timeout_s,
                             run_limit=self.run_limit,
                             mem_per_node=self.mem_per_node,
                             l2_size=self.l2_size,
                             coverage=planner is not None) as pool:
            pool.drive(next_task, on_result,
                       lambda in_flight: beat(in_flight=in_flight))
        beat(finished=True, force=True)
        ordered = [records[index] for index in sorted(records)]
        return CampaignSummary.from_records(ordered)

    @staticmethod
    def _record(run_index, seed, schedule, payload):
        return RunRecord(
            run_index=run_index,
            seed=seed,
            status=RunStatus(payload["status"]),
            schedule=schedule.to_dict(),
            problems=list(payload.get("problems", ())),
            restarts=payload.get("restarts", 0),
            episodes=payload.get("episodes", 0),
            error=payload.get("error", ""),
            elapsed_s=payload.get("elapsed_s", 0.0),
            metrics=dict(payload.get("metrics", {})),
            forensics=dict(payload.get("forensics", {})),
            flight=dict(payload.get("flight", {})),
        )


def run_schedule_isolated(schedule, seed, timeout_s=300.0,
                          run_limit=60_000_000_000,
                          mem_per_node=64 << 10, l2_size=8 << 10):
    """Run one exact (schedule, seed) in a crash-isolated worker.

    Used by the shrinker's still-fails predicate and by replay: a
    fixed-schedule campaign uses its seed literally, so the seed is the
    failing run's own, not derived, and the reproduction is exact.
    Returns a :class:`~repro.campaign.records.RunRecord`.
    """
    runner = CampaignRunner(schedule=schedule, runs=1, campaign_seed=seed,
                            timeout_s=timeout_s, run_limit=run_limit,
                            mem_per_node=mem_per_node, l2_size=l2_size)
    return runner.run().records[0]


# --------------------------------------------------------------- console

def print_progress(record):
    """One stderr line per finished run (the ``progress`` callback of the
    CLI's campaigns and fuzz sessions)."""
    line = "  run %3d [%s] " % (record.run_index, record.status.value)
    fuzz = record.fuzz
    if fuzz:
        line += fuzz["op"]
        if fuzz["new_features"]:
            line += " +%d coverage" % len(fuzz["new_features"])
    else:
        line += "seed=%d" % record.seed
    if record.status is RunStatus.FAIL:
        line += " problems=%d" % len(record.problems)
    elif record.status.is_abort:
        line += " %s" % record.error.strip().splitlines()[-1]
    if fuzz and record.status is not RunStatus.PASS:
        line += " <-- %s" % fuzz["lineage"]
    print(line, file=sys.stderr)


def print_failure(record):
    """A non-PASS record with its ready-to-paste reproduction."""
    print("  %s run %d (seed %d): %s" % (
        record.status.value, record.run_index, record.seed,
        record.problems[:3] if record.problems
        else record.error.strip().splitlines()[-1:]))
    print("    repro: %s" % repro_command(
        FaultSchedule.from_dict(record.schedule), record.seed))


def print_shrunk(entry):
    """One :func:`~repro.campaign.shrink.shrink_failures` entry: what the
    shrinker removed and the minimal reproduction."""
    print(entry["shrink_summary"])
    for step in entry["shrink_steps"]:
        print("  -", step)
    print("minimal repro: %s" % entry["repro"])


def report_evidence(out_path, records):
    """Point stderr at the evidence red records carry: write the FAIL
    runs' forensic summaries to ``<out_path>.forensics.json`` (returns
    its path, None when there is nothing to write) and say how many
    records hold a flight-recorder dump."""
    path = None
    failing = [
        {"run_index": record.run_index, "seed": record.seed,
         "schedule": record.schedule, "problems": record.problems,
         "forensics": record.forensics}
        for record in records
        if record.status is RunStatus.FAIL and record.forensics]
    if failing:
        path = out_path + ".forensics.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(failing, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("forensic report (%d failing run(s)): %s"
              % (len(failing), path), file=sys.stderr)
    flight_dumps = sum(1 for record in records if record.flight)
    if flight_dumps:
        print("flight recorder: %d run(s) carry a dumped tail window in "
              "%s (replay via repro.telemetry.flight.events_from_dump)"
              % (flight_dumps, out_path), file=sys.stderr)
    return path
