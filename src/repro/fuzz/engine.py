"""The coverage-guided fuzz loop.

One session owns a machine shape and a campaign seed.  The loop:

1. seed the corpus by running every registered schedule generator;
2. repeatedly pick an energy-weighted parent from the corpus, mutate it
   (:mod:`repro.fuzz.mutate`), and run the mutant in a crash-isolated
   batch worker (:mod:`repro.campaign.pool`) with coverage extraction on;
3. admit any run that reached new coverage
   (:class:`~repro.fuzz.coverage.CoverageMap`) into the corpus;
4. when the budget (runs or wall clock) is spent, route every failing run
   through the greedy shrinker and emit ready-to-paste reproduction
   commands.

Resumability: every finished run appends one JSONL record; restarting
with the same output directory reloads the corpus and replays the
records through a fresh coverage map, then continues planning at the
next run index.  Every schedule is bit-reproducible from
``(campaign_seed, lineage)`` alone — see ``repro.cli fuzz --replay``.

Planning note: with ``jobs > 1`` the *trajectory* (which parent breeds
when) depends on result arrival order, exactly as in AFL; the
determinism contract is per-schedule via lineage, not per-session.  With
``jobs=1`` the whole session is deterministic.
"""

# repro-lint: disable-file=wall-clock — the fuzz loop is a real-time
# boundary like the campaign runner: wall-clock budgets and per-run
# elapsed times are measured here, around crash-isolated workers.

import os
import time

from repro.campaign.pool import BatchWorkerPool
from repro.campaign.records import (
    RunStatus,
    append_json_line,
    load_json_lines,
)
from repro.campaign.runner import run_schedule_isolated
from repro.campaign.schedule import SCHEDULE_GENERATORS, FaultSchedule
from repro.campaign.shrink import repro_command, shrink_schedule
from repro.fuzz.corpus import Corpus, CorpusEntry, schedule_fingerprint
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.mutate import (
    derive_mutant_seed,
    mutate,
    rng_for,
    root_schedule,
)
from repro.telemetry.metrics import Histogram

#: mutation attempts per planned run before falling back to a fresh root
_MUTATE_ATTEMPTS = 8

#: fraction of post-seed runs planned as fresh generator roots anyway,
#: so the corpus never inbreeds to a single family
_FRESH_ROOT_RATE = 0.1


class FuzzEngine:
    """Drive one coverage-guided fuzzing session."""

    def __init__(self, campaign_seed=0, num_nodes=8, topology="mesh",
                 runs=200, wall_clock_s=None, jobs=1, timeout_s=120.0,
                 run_limit=60_000_000_000, mem_per_node=64 << 10,
                 l2_size=8 << 10, out_dir=None, strategy="coverage",
                 max_shrinks=3, shrink_checks=40, progress=None):
        self.campaign_seed = campaign_seed
        self.num_nodes = num_nodes
        self.topology = topology
        self.runs = runs
        self.wall_clock_s = wall_clock_s
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.run_limit = run_limit
        self.mem_per_node = mem_per_node
        self.l2_size = l2_size
        self.out_dir = out_dir
        self.strategy = strategy
        self.max_shrinks = max_shrinks
        self.shrink_checks = shrink_checks
        self.progress = progress

        self.coverage = CoverageMap()
        self.corpus = Corpus()
        self.containment = Histogram()
        self.growth = []          # (run_count, coverage_size) checkpoints
        self.failures = []        # finished-run dicts with status != PASS
        self.seen_fingerprints = set()
        self.stats = {
            "runs": 0, "pass": 0, "fail": 0, "crashed": 0, "hung": 0,
            "skip_noop": 0, "skip_dup": 0, "new_coverage_runs": 0,
            "injector_skips": 0, "fresh_roots": 0,
        }
        self._next_index = 0
        self._kinds = sorted(SCHEDULE_GENERATORS)

    # ------------------------------------------------------------ paths

    def _path(self, name):
        if self.out_dir is None:
            return None
        return os.path.join(self.out_dir, name)

    @property
    def records_path(self):
        return self._path("records.jsonl")

    @property
    def corpus_path(self):
        return self._path("corpus.jsonl")

    @property
    def failures_path(self):
        return self._path("failures.jsonl")

    # ----------------------------------------------------------- resume

    def resume(self):
        """Reload corpus + records from ``out_dir``; returns runs done."""
        if self.out_dir is None:
            return 0
        self.corpus = Corpus.load(self.corpus_path)
        records = load_json_lines(self.records_path)
        for record in sorted(records, key=lambda r: r.get("run_index", 0)):
            self._account(record, record.get("features", ()),
                          persist=False)
            self._next_index = max(self._next_index,
                                   record.get("run_index", -1) + 1)
            self.seen_fingerprints.add(record.get("fingerprint", ""))
        return self.stats["runs"]

    # --------------------------------------------------------- planning

    def _plan_root(self, run_index, salt=None):
        kind = self._kinds[run_index % len(self._kinds)]
        salt = run_index // len(self._kinds) if salt is None else salt
        schedule, lineage = root_schedule(
            self.campaign_seed, kind, salt,
            num_nodes=self.num_nodes, topology=self.topology)
        return schedule, lineage, "seed"

    def _plan_next(self, run_index):
        """The (schedule, lineage, op) of the next run to launch."""
        seeding = run_index < len(self._kinds)
        if seeding or self.strategy == "random" or not len(self.corpus):
            if not seeding:
                self.stats["fresh_roots"] += 1
            return self._plan_root(run_index)
        rng = rng_for(self.campaign_seed, "plan:%d" % run_index)
        if rng.random() < _FRESH_ROOT_RATE:
            self.stats["fresh_roots"] += 1
            return self._plan_root(run_index)
        parent = self.corpus.select_parent(rng, self.coverage)
        donor = self.corpus.select_donor(rng, parent)
        for attempt in range(_MUTATE_ATTEMPTS):
            salt = run_index * _MUTATE_ATTEMPTS + attempt
            bred = mutate(
                self.campaign_seed, parent.schedule, parent.lineage, salt,
                donor=None if donor is None else donor.schedule,
                donor_lineage=None if donor is None else donor.lineage)
            if bred is None:
                self.stats["skip_noop"] += 1
                continue
            schedule, lineage, op = bred
            if schedule_fingerprint(schedule) in self.seen_fingerprints:
                self.stats["skip_dup"] += 1
                continue
            return schedule, lineage, op
        # Every attempt no-opped or duplicated: explore instead.
        self.stats["fresh_roots"] += 1
        return self._plan_root(run_index, salt=run_index)

    # --------------------------------------------------------- absorbing

    def _absorb(self, plan, payload):
        """Fold one finished run into coverage, corpus, stats, records."""
        run_index, lineage, op, schedule, seed = plan
        cover = payload.get("coverage", {})
        features = cover.get("features", [])
        record = {
            "run_index": run_index,
            "lineage": lineage,
            "op": op,
            "seed": seed,
            "status": payload["status"],
            "schedule": schedule.to_dict(),
            "fingerprint": schedule_fingerprint(schedule),
            "features": features,
            "elapsed_s": payload.get("elapsed_s", 0.0),
            "escape": cover.get("escape", False),
            "containment_ns": cover.get("containment_ns", []),
            "injector_skips": cover.get("skipped_injections", 0),
        }
        if payload.get("problems"):
            record["problems"] = list(payload["problems"])
        if payload.get("error"):
            record["error"] = payload["error"]
        if payload.get("forensics"):
            record["forensics"] = payload["forensics"]
        new = self._account(record, features, persist=True)
        record["new_features"] = new
        if self.records_path:
            append_json_line(self.records_path, record)
        if self.progress is not None:
            self.progress(record)
        return record

    def _account(self, record, features, persist):
        """Shared state update for live results and resumed records."""
        status = record["status"]
        self.stats["runs"] += 1
        self.stats[status if status in ("pass", "fail") else
                   ("crashed" if status == RunStatus.CRASHED.value
                    else "hung")] += 1
        self.stats["injector_skips"] += record.get("injector_skips", 0)
        self.seen_fingerprints.add(record.get("fingerprint", ""))
        for value in record.get("containment_ns", ()):
            self.containment.observe(value)
        new = self.coverage.add(features)
        if new:
            self.stats["new_coverage_runs"] += 1
            self.growth.append((self.stats["runs"], len(self.coverage)))
            schedule = FaultSchedule.from_dict(record["schedule"])
            entry = CorpusEntry(
                lineage=record["lineage"], schedule=schedule,
                seed=record["seed"], features=features,
                new_features=new, op=record.get("op", "seed"))
            if self.corpus.add(entry) and persist and self.corpus_path:
                self.corpus.append_to(self.corpus_path, entry)
        if status != RunStatus.PASS.value:
            self.failures.append(record)
        return new

    # ------------------------------------------------------------ driving

    def _budget_left(self, started):
        if self.wall_clock_s is not None:
            return time.monotonic() - started < self.wall_clock_s
        return self._next_index < self.runs

    def _status_writer(self):
        """Heartbeat sidecar in the session directory (None without one)."""
        if self.out_dir is None:
            return None
        from repro.telemetry.status import StatusWriter
        return StatusWriter(self._path("status.json"), kind="fuzz",
                            total=None if self.wall_clock_s is not None
                            else self.runs)

    def _update_status(self, status, **kwargs):
        status.update(
            done=self.stats["runs"],
            counts={key: self.stats[key] for key in
                    ("pass", "fail", "crashed", "hung")},
            extras={"coverage_features": len(self.coverage),
                    "corpus_size": len(self.corpus),
                    "failures": len(self.failures)},
            **kwargs)

    def run(self):
        """Execute the session; returns the report dict."""
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
        started = time.monotonic()
        status = self._status_writer()
        plans = {}

        def next_task():
            if not self._budget_left(started):
                return None
            run_index = self._next_index
            self._next_index += 1
            schedule, lineage, op = self._plan_next(run_index)
            seed = derive_mutant_seed(self.campaign_seed, lineage)
            plans[run_index] = (run_index, lineage, op, schedule, seed)
            return run_index, schedule.to_dict(), seed

        def on_result(run_index, payload):
            self._absorb(plans.pop(run_index), payload)

        def on_tick(in_flight):
            if status is not None:
                self._update_status(status, in_flight=in_flight)

        with BatchWorkerPool(jobs=self.jobs, timeout_s=self.timeout_s,
                             run_limit=self.run_limit,
                             mem_per_node=self.mem_per_node,
                             l2_size=self.l2_size, coverage=True) as pool:
            pool.drive(next_task, on_result, on_tick)
        if status is not None:
            self._update_status(status, finished=True, force=True)
        shrunk = self._shrink_failures()
        return self.report(elapsed_s=time.monotonic() - started,
                           shrunk=shrunk)

    # ----------------------------------------------------------- shrinking

    def _shrink_failures(self):
        """Minimize the first few distinct failures; returns their dicts."""
        shrunk = []
        seen = set()
        for failure in self.failures:
            if len(shrunk) >= self.max_shrinks:
                break
            if failure["fingerprint"] in seen:
                continue
            seen.add(failure["fingerprint"])
            schedule = FaultSchedule.from_dict(failure["schedule"])
            seed = failure["seed"]

            def still_fails(candidate):
                record = run_schedule_isolated(
                    candidate, seed, timeout_s=self.timeout_s,
                    run_limit=self.run_limit,
                    mem_per_node=self.mem_per_node, l2_size=self.l2_size)
                return record.status is not RunStatus.PASS

            result = shrink_schedule(schedule, still_fails,
                                     max_checks=self.shrink_checks)
            entry = {
                "run_index": failure["run_index"],
                "lineage": failure["lineage"],
                "seed": seed,
                "status": failure["status"],
                "problems": failure.get("problems", []),
                "forensics": failure.get("forensics", {}),
                "schedule": failure["schedule"],
                "shrunk_schedule": result.schedule.to_dict(),
                "shrink_steps": result.steps,
                "shrink_checks": result.checks,
                "repro": repro_command(result.schedule, seed),
                "replay": self.replay_command(failure["lineage"]),
            }
            shrunk.append(entry)
            if self.failures_path:
                append_json_line(self.failures_path, entry)
        return shrunk

    def replay_command(self, lineage):
        """Ready-to-paste bit-identical replay of one lineage."""
        return ("PYTHONPATH=src python -m repro.cli fuzz --replay '%s' "
                "--seed %d --nodes-count %d --topology %s"
                % (lineage, self.campaign_seed, self.num_nodes,
                   self.topology))

    # ------------------------------------------------------------ reporting

    def report(self, elapsed_s=0.0, shrunk=()):
        percentiles = (self.containment.percentiles()
                       if self.containment.count else {})
        return {
            "campaign_seed": self.campaign_seed,
            "num_nodes": self.num_nodes,
            "topology": self.topology,
            "strategy": self.strategy,
            "elapsed_s": elapsed_s,
            "stats": dict(self.stats),
            "coverage_features": len(self.coverage),
            "corpus_size": len(self.corpus),
            "growth": list(self.growth),
            "containment_ns": {
                "count": self.containment.count,
                "p50": percentiles.get("p50"),
                "p95": percentiles.get("p95"),
                "p99": percentiles.get("p99"),
            },
            "failures": len(self.failures),
            "shrunk": list(shrunk),
        }


def format_report(report):
    """Human-readable session summary with the coverage growth curve."""
    stats = report["stats"]
    lines = []
    lines.append("fuzz session: seed=%d %d nodes %s, strategy=%s"
                 % (report["campaign_seed"], report["num_nodes"],
                    report["topology"], report["strategy"]))
    lines.append("  %d runs in %.1fs — %d pass, %d fail, %d crashed, "
                 "%d hung" % (stats["runs"], report["elapsed_s"],
                              stats["pass"], stats["fail"],
                              stats["crashed"], stats["hung"]))
    lines.append("  coverage: %d features, corpus %d schedules "
                 "(%d runs hit new coverage, %d fresh roots)"
                 % (report["coverage_features"], report["corpus_size"],
                    stats["new_coverage_runs"], stats["fresh_roots"]))
    lines.append("  mutation skips: %d no-op/invalid, %d duplicate; "
                 "injector skips in runs: %d"
                 % (stats["skip_noop"], stats["skip_dup"],
                    stats["injector_skips"]))
    growth = report["growth"]
    if growth:
        curve = "  growth: " + " ".join(
            "%d:%d" % point for point in _thin(growth, 12))
        lines.append(curve)
    containment = report["containment_ns"]
    if containment["count"]:
        lines.append("  containment time (ns, %d episodes): p50=%s "
                     "p95=%s p99=%s"
                     % (containment["count"], containment["p50"],
                        containment["p95"], containment["p99"]))
    lines.append("  failures: %d (%d shrunk)"
                 % (report["failures"], len(report["shrunk"])))
    for entry in report["shrunk"]:
        lines.append("  - run %d [%s] %s" % (
            entry["run_index"], entry["status"], entry["lineage"]))
        for problem in entry["problems"][:3]:
            lines.append("      problem: %s" % problem)
        lines.append("      repro:  %s" % entry["repro"])
        lines.append("      replay: %s" % entry["replay"])
    return "\n".join(lines)


def _thin(points, limit):
    if len(points) <= limit:
        return points
    step = (len(points) - 1) / (limit - 1)
    return [points[round(index * step)] for index in range(limit)]
