"""Crash-isolated campaign runner.

Every run executes in a persistent ``multiprocessing`` worker of a
:class:`~repro.campaign.pool.BatchWorkerPool` with a wall-clock watchdog,
so a simulator bug found by an aggressive schedule — a Python crash, an
infinite event loop, a drained event heap — is *data* (a
``CRASHED``/``HUNG`` record) rather than the death of the whole batch.
The pool's :meth:`~repro.campaign.pool.BatchWorkerPool.drive` is the one
driving loop; this module supplies the campaign's task source (planned
runs) and result sink (records, JSONL, status heartbeat).

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
import random

from repro.campaign.pool import BatchWorkerPool
from repro.campaign.records import (
    RunRecord,
    RunStatus,
    append_record,
    load_records,
    status_counts,
)
from repro.campaign.schedule import make_schedule


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
    passed: int
    failed: int
    crashed: int
    hung: int
    records: list

    @classmethod
    def from_records(cls, records):
        counts = status_counts(records)
        return cls(total=len(records),
                   passed=counts[RunStatus.PASS.value],
                   failed=counts[RunStatus.FAIL.value],
                   crashed=counts[RunStatus.CRASHED.value],
                   hung=counts[RunStatus.HUNG.value],
                   records=list(records))

    @property
    def ok(self):
        """True when every run reached a verdict (no batch-level aborts)."""
        return self.crashed == 0 and self.hung == 0

    def failures(self):
        return [record for record in self.records
                if record.status is not RunStatus.PASS]

    def __str__(self):
        return ("campaign: %d runs — %d pass, %d fail, %d crashed, %d hung"
                % (self.total, self.passed, self.failed,
                   self.crashed, self.hung))


class CampaignRunner:
    """Run ``runs`` schedules, each crash-isolated, streaming JSONL records.

    ``kind`` names a generator from
    :data:`~repro.campaign.schedule.SCHEDULE_GENERATORS`; alternatively a
    fixed ``schedule`` replays one exact scenario every run (the per-run
    seeds still vary the machine's random fill and timing draws).
    ``reuse_machines`` is accepted for old callers and ignored: every
    campaign runs on the persistent worker pool.
    """

    def __init__(self, kind="random-multi", runs=50, campaign_seed=0,
                 num_nodes=8, topology="mesh", schedule=None, out_path=None,
                 timeout_s=300.0, run_limit=60_000_000_000, jobs=1,
                 mem_per_node=64 << 10, l2_size=8 << 10, progress=None,
                 reuse_machines=False, telemetry_mode="trace"):
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
        #: "trace" (full head-capped trace per run) or "flight" (tracing
        #: off, always-on last-N flight ring dumped on failures) — the
        #: cheap mode for very large sweeps.
        self.telemetry_mode = telemetry_mode

    # ------------------------------------------------------------ scheduling

    def plan_run(self, run_index):
        """The (seed, schedule) of run ``run_index`` — pure and stable.

        In replay mode (a fixed schedule) the campaign seed is used
        *literally* for every run, so a failure's printed repro command —
        which carries the failing run's own derived seed — reproduces that
        exact run.
        """
        if self.fixed_schedule is not None:
            return self.campaign_seed, self.fixed_schedule
        seed = derive_run_seed(self.campaign_seed, run_index)
        rng = random.Random(seed)
        return seed, make_schedule(self.kind, rng, num_nodes=self.num_nodes,
                                   topology=self.topology)

    # --------------------------------------------------------------- driving

    def _status_writer(self):
        """Heartbeat sidecar next to the records file (None without one)."""
        if not self.out_path:
            return None
        from repro.telemetry.status import StatusWriter
        return StatusWriter(self.out_path + ".status.json",
                            kind="campaign", total=self.runs)

    def run(self):
        """Execute all pending runs; returns a :class:`CampaignSummary`."""
        records = {}
        if self.out_path:
            for record in load_records(self.out_path):
                if record.run_index < self.runs:
                    records[record.run_index] = record
        pending = [index for index in range(self.runs)
                   if index not in records]
        status = self._status_writer()
        counts = status_counts(records.values())
        plans = {}

        def next_task():
            if not pending:
                return None
            run_index = pending.pop(0)
            seed, schedule = self.plan_run(run_index)
            plans[run_index] = (seed, schedule)
            return run_index, schedule.to_dict(), seed

        def on_result(run_index, payload):
            seed, schedule = plans.pop(run_index)
            record = self._record(run_index, seed, schedule, payload)
            records[run_index] = record
            counts[record.status.value] += 1
            if self.out_path:
                append_record(self.out_path, record)
            if self.progress is not None:
                self.progress(record)

        def on_tick(in_flight):
            if status is not None:
                status.update(done=len(records), counts=counts,
                              in_flight=in_flight)

        with BatchWorkerPool(jobs=self.jobs, timeout_s=self.timeout_s,
                             run_limit=self.run_limit,
                             mem_per_node=self.mem_per_node,
                             l2_size=self.l2_size,
                             telemetry_mode=self.telemetry_mode) as pool:
            pool.drive(next_task, on_result, on_tick)
        if status is not None:
            status.update(done=len(records), counts=counts, finished=True,
                          force=True)
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
