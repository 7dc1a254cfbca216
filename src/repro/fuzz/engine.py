"""The coverage-guided fuzz planner.

A fuzz session is a campaign
(:class:`~repro.campaign.runner.CampaignRunner`) whose schedules come from
a corpus.  The runner owns the worker pool, the run records, the status
sidecar, the outcome counts, resume and shrinking; :class:`FuzzEngine` is
its *planner* and owns only which schedule runs next and what each
finished run teaches:

1. the first runs seed the corpus with every registered schedule
   generator;
2. after that :meth:`FuzzEngine.plan_run` picks an energy-weighted parent
   from the corpus and mutates it (:mod:`repro.fuzz.mutate`);
3. :meth:`FuzzEngine.account` folds each finished record into the
   coverage map (:class:`~repro.fuzz.coverage.CoverageMap`) and admits any
   run that reached new coverage into the corpus.

Resumability: the runner replays the recorded runs through ``account`` in
file order — the order the live session accounted them in — so a resumed
engine holds the same coverage map, corpus and growth curve.  Every
schedule is bit-reproducible from ``(campaign_seed, lineage)`` alone
(:func:`~repro.fuzz.mutate.rebuild_from_lineage`), and every record
carries its schedule and machine seed, which ``repro.cli validate
--schedule`` replays.

Planning note: with ``jobs > 1`` the *trajectory* (which parent breeds
when) depends on result arrival order, exactly as in AFL; the
determinism contract is per-schedule via lineage, not per-session.  With
``jobs=1`` the whole session is deterministic.
"""

from repro.campaign.records import RunStatus, format_counts
from repro.campaign.schedule import (
    SCHEDULE_GENERATORS,
    FaultSchedule,
    schedule_fingerprint,
)
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.mutate import (
    derive_mutant_seed,
    mutate,
    rng_for,
    root_schedule,
)
from repro.telemetry.metrics import containment_times_ms, percentile

#: mutation attempts per planned run before falling back to a fresh root
_MUTATE_ATTEMPTS = 8

#: fraction of post-seed runs planned as fresh generator roots anyway,
#: so the corpus never inbreeds to a single family
_FRESH_ROOT_RATE = 0.1

#: shrinker predicate budget per failure at the end of a session
SHRINK_CHECKS = 40


class FuzzEngine:
    """The planner of one coverage-guided fuzzing session.

    ``campaign`` in the methods below is the
    :class:`~repro.campaign.runner.CampaignRunner` driving the session:
    its campaign seed and machine shape name the schedules.
    """

    def __init__(self, strategy="coverage"):
        self.strategy = strategy
        self.coverage = CoverageMap()
        self.corpus = Corpus()
        self.containment_ns = []  # completed episodes, accounting order
        self.growth = []          # (run_count, coverage_size) checkpoints
        self.seen_fingerprints = set()
        self.accounted = 0        # finished runs folded in, live or resumed
        self.stats = {
            "skip_noop": 0, "skip_dup": 0, "new_coverage_runs": 0,
            "injector_skips": 0, "fresh_roots": 0,
        }
        #: run_index -> (lineage, op, fingerprint) of runs in flight
        self._planned = {}
        self._kinds = sorted(SCHEDULE_GENERATORS)

    # --------------------------------------------------------- planning

    def plan_run(self, campaign, run_index):
        """The (seed, schedule) of the next run to launch."""
        schedule, lineage, op = self._plan_next(campaign, run_index)
        self._planned[run_index] = (lineage, op,
                                    schedule_fingerprint(schedule))
        return derive_mutant_seed(campaign.campaign_seed, lineage), schedule

    def _plan_root(self, campaign, run_index, salt=None):
        kind = self._kinds[run_index % len(self._kinds)]
        salt = run_index // len(self._kinds) if salt is None else salt
        schedule, lineage = root_schedule(
            campaign.campaign_seed, kind, salt,
            num_nodes=campaign.num_nodes, topology=campaign.topology)
        return schedule, lineage, "seed"

    def _plan_next(self, campaign, run_index):
        """The (schedule, lineage, op) of run ``run_index``."""
        seeding = run_index < len(self._kinds)
        if seeding or self.strategy == "random" or not len(self.corpus):
            if not seeding:
                self.stats["fresh_roots"] += 1
            return self._plan_root(campaign, run_index)
        seed = campaign.campaign_seed
        rng = rng_for(seed, "plan:%d" % run_index)
        if rng.random() < _FRESH_ROOT_RATE:
            self.stats["fresh_roots"] += 1
            return self._plan_root(campaign, run_index)
        parent = self.corpus.select_parent(rng, self.coverage)
        donor = self.corpus.select_donor(rng, parent)
        for attempt in range(_MUTATE_ATTEMPTS):
            salt = run_index * _MUTATE_ATTEMPTS + attempt
            bred = mutate(
                seed, parent.schedule, parent.lineage, salt,
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
        return self._plan_root(campaign, run_index, salt=run_index)

    # -------------------------------------------------------- accounting

    def account(self, record, coverage=None):
        """Fold one finished run into coverage, corpus and growth curve.

        A live result arrives with the worker's ``coverage`` summary (``{}``
        when the run aborted before producing one), from which this writes
        the record's ``fuzz`` section; a resumed record already has it.
        """
        if coverage is not None:
            lineage, op, fingerprint = self._planned.pop(record.run_index)
            record.fuzz = {
                "lineage": lineage,
                "op": op,
                "fingerprint": fingerprint,
                "features": coverage.get("features", []),
                "escape": coverage.get("escape", False),
                "injector_skips": coverage.get("skipped_injections", 0),
            }
        fuzz = record.fuzz
        self.accounted += 1
        self.stats["injector_skips"] += fuzz["injector_skips"]
        self.seen_fingerprints.add(fuzz["fingerprint"])
        self.containment_ns.extend(
            round(duration_ms * 1e6)
            for duration_ms in containment_times_ms(record.metrics))
        new = fuzz["new_features"] = self.coverage.add(fuzz["features"])
        if new:
            self.stats["new_coverage_runs"] += 1
            self.growth.append((self.accounted, len(self.coverage)))
            self.corpus.add(CorpusEntry(
                fuzz["lineage"], FaultSchedule.from_dict(record.schedule),
                fuzz["features"]))

    def status_extras(self):
        """The engine's lines of the session's status heartbeat."""
        return {"coverage_features": len(self.coverage),
                "corpus_size": len(self.corpus)}

    # ------------------------------------------------------------ reporting

    def report(self, campaign, summary, elapsed_s=0.0, shrunk=()):
        """The session report: the runner's outcome counts plus what the
        engine learned."""
        containment = sorted(self.containment_ns)
        stats = {"runs": summary.total}
        stats.update((status.value, count)
                     for status, count in summary.counts.items())
        stats.update(self.stats)
        return {
            "campaign_seed": campaign.campaign_seed,
            "num_nodes": campaign.num_nodes,
            "topology": campaign.topology,
            "strategy": self.strategy,
            "elapsed_s": elapsed_s,
            "stats": stats,
            "coverage_features": len(self.coverage),
            "corpus_size": len(self.corpus),
            "growth": list(self.growth),
            "containment_ns": {
                "count": len(containment),
                "p50": percentile(containment, 50),
                "p95": percentile(containment, 95),
                "p99": percentile(containment, 99),
            },
            "failures": len(summary.failures()),
            "shrunk": list(shrunk),
        }


def format_report(report):
    """Human-readable session summary with the coverage growth curve."""
    stats = report["stats"]
    lines = []
    lines.append("fuzz session: seed=%d %d nodes %s, strategy=%s"
                 % (report["campaign_seed"], report["num_nodes"],
                    report["topology"], report["strategy"]))
    lines.append("  %d runs in %.1fs — %s" % (
        stats["runs"], report["elapsed_s"],
        format_counts({status: stats[status.value]
                       for status in RunStatus})))
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
        lines.append("      repro: %s" % entry["repro"])
    return "\n".join(lines)


def _thin(points, limit):
    if len(points) <= limit:
        return points
    step = (len(points) - 1) / (limit - 1)
    return [points[round(index * step)] for index in range(limit)]
