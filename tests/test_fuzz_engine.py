"""The fuzz loop end to end: corpus, sessions, resume, replay, CLI.

A session is a :class:`CampaignRunner` with a :class:`FuzzEngine` as its
planner.  The slow tests here run real (small) simulations; they are
sized so the whole module stays within a tier-1 budget while still
proving the acceptance criteria: coverage grows past the generator
seeds, sessions resume from JSONL, and any recorded lineage replays
bit-identically.
"""

import hashlib
import json

import pytest

from repro.campaign.records import RunStatus, load_json_lines
from repro.campaign.runner import CampaignRunner, run_schedule_isolated
from repro.campaign.schedule import (
    SCHEDULE_GENERATORS,
    schedule_fingerprint,
)
from repro.campaign.shrink import shrink_failures
from repro.cli import main as cli_main
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.engine import FuzzEngine, format_report
from repro.fuzz.mutate import (
    derive_mutant_seed,
    rebuild_from_lineage,
    rng_for,
    root_schedule,
)
from repro.telemetry.metrics import containment_times_ms


def _session(out, executed=None, **campaign):
    """A fresh engine and the runner of a session in directory ``out``
    (the layout ``repro.cli fuzz`` uses)."""
    engine = FuzzEngine()
    runner = CampaignRunner(
        planner=engine, campaign_seed=0,
        out_path=str(out / "records.jsonl"),
        status_path=str(out / "status.json"),
        progress=None if executed is None
        else lambda record: executed.append(record.run_index), **campaign)
    return engine, runner


def _entry(kind, salt, features):
    schedule, lineage = root_schedule(0, kind, salt)
    return CorpusEntry(lineage, schedule, features)


class TestCorpus:
    def test_add_dedups_by_fingerprint(self):
        corpus = Corpus()
        assert corpus.add(_entry("random-multi", 0, ["a"]))
        assert not corpus.add(_entry("random-multi", 0, ["b"]))
        assert corpus.add(_entry("random-multi", 1, ["a"]))
        assert len(corpus) == 2

    def test_select_parent_prefers_rare_features(self):
        corpus = Corpus()
        corpus.add(_entry("random-multi", 0, ["common"]))
        corpus.add(_entry("random-multi", 1, ["rare"]))
        coverage = CoverageMap()
        for _ in range(50):
            coverage.add(["common"])
        coverage.add(["rare"])
        rng = rng_for(0, "test-selection")
        picks = [corpus.select_parent(rng, coverage).lineage
                 for _ in range(200)]
        rare_lineage = corpus.entries[1].lineage
        assert picks.count(rare_lineage) > 100

    def test_select_donor_excludes_parent(self):
        corpus = Corpus()
        corpus.add(_entry("random-multi", 0, []))
        parent = corpus.entries[0]
        rng = rng_for(0, "donor")
        assert corpus.select_donor(rng, parent) is None
        corpus.add(_entry("flaky-links", 1, []))
        for _ in range(10):
            donor = corpus.select_donor(rng, parent)
            assert donor.fingerprint != parent.fingerprint


class TestFuzzSession:
    """One tiny real session, shared across the assertions below."""

    RUNS = 8

    @classmethod
    def setup_class(cls):
        cls.out = None   # set via the fixture below

    @pytest.fixture(autouse=True, scope="class")
    def session(self, request, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz")
        engine, runner = _session(out, runs=self.RUNS, jobs=2)
        summary = runner.run()
        shrunk = shrink_failures(runner, summary.failures(), limit=1,
                                 max_checks=10)
        request.cls.out = out
        request.cls.engine = engine
        request.cls.report = engine.report(runner, summary, shrunk=shrunk)
        request.cls.records = load_json_lines(str(out / "records.jsonl"))

    def test_all_runs_recorded(self):
        assert self.report["stats"]["runs"] == self.RUNS
        assert sorted(r["run_index"] for r in self.records) \
            == list(range(self.RUNS))

    def test_records_are_run_records_with_a_fuzz_section(self):
        """One record type: what a campaign run carries, plus ``fuzz``."""
        for record in self.records:
            assert set(record["fuzz"]) == {
                "lineage", "op", "fingerprint", "features", "new_features",
                "escape", "injector_skips"}
            assert "containment_ns" not in record
            if record["status"] in ("pass", "fail"):
                assert "availability" not in record["metrics"]
                recovery = record["metrics"]["recovery"]
                assert recovery["episodes"] == record["episodes"]
                assert sum(episode["total_ms"] is not None
                           for episode in recovery["timeline"]) \
                    == record["episodes"]

    def test_coverage_grows_past_the_seed_corpus(self):
        """Acceptance criterion: the generators alone seed the corpus;
        fuzzing must reach coverage beyond run 0's features."""
        assert self.report["coverage_features"] > 0
        growth = self.report["growth"]
        assert growth[-1][1] > growth[0][1]
        assert self.report["corpus_size"] >= 1

    def test_seed_runs_cover_every_generator(self):
        seeds = [r["fuzz"] for r in self.records
                 if r["fuzz"]["op"] == "seed"
                 and r["run_index"] < len(SCHEDULE_GENERATORS)]
        kinds = {fuzz["lineage"].split(":")[1] for fuzz in seeds}
        assert kinds == set(SCHEDULE_GENERATORS)

    def test_every_recorded_lineage_rebuilds_its_schedule(self):
        for record in self.records:
            lineage = record["fuzz"]["lineage"]
            rebuilt = rebuild_from_lineage(0, lineage)
            assert rebuilt.to_dict() == record["schedule"], lineage

    def test_recorded_run_replays_bit_identically(self):
        record = self.records[0]
        lineage = record["fuzz"]["lineage"]
        schedule = rebuild_from_lineage(0, lineage)
        seed = derive_mutant_seed(0, lineage)
        assert seed == record["seed"]

        def replay():
            data = run_schedule_isolated(schedule, seed,
                                         timeout_s=120.0).to_dict()
            data.pop("elapsed_s")
            return data

        first, second = replay(), replay()
        assert first == second
        assert first["status"] == record["status"]
        # The session's record is that same run plus the fuzz section.
        first.pop("run_index")
        assert first == {key: value for key, value in record.items()
                         if key not in ("elapsed_s", "fuzz", "run_index")}

    def test_resume_continues_at_next_index(self):
        executed = []
        resumed, runner = _session(self.out, executed, runs=self.RUNS)
        assert runner.run().total == self.RUNS
        assert executed == []
        assert len(resumed.coverage) == self.report["coverage_features"]
        assert len(resumed.corpus) == self.report["corpus_size"]
        # A resumed session with a larger budget plans fresh indices.
        schedule, lineage, _op = resumed._plan_next(runner, self.RUNS)
        assert lineage   # planning works off the reloaded corpus

    def test_resumed_engine_equals_the_live_one(self):
        """Resume replays the records in file order — the order the live
        ``jobs=2`` session accounted them in — so first-seen credit, the
        growth curve and corpus admission come out the same."""
        resumed, runner = _session(self.out, runs=self.RUNS)
        runner.run()
        live = self.engine
        assert resumed.coverage.hits == live.coverage.hits
        assert resumed.growth == live.growth
        assert [entry.fingerprint for entry in resumed.corpus.entries] \
            == [entry.fingerprint for entry in live.corpus.entries]
        assert resumed.seen_fingerprints == live.seen_fingerprints
        assert resumed.containment_ns == live.containment_ns

    def test_resume_credits_first_seen_in_file_order(self, tmp_path):
        """Not in run-index order: the record a live session accounted
        first is the one that got the first-seen credit."""
        with open(tmp_path / "records.jsonl", "w") as handle:
            for record in reversed(self.records):
                handle.write(json.dumps(record) + "\n")
        resumed, runner = _session(tmp_path, runs=self.RUNS)
        runner.run()
        last = self.records[-1]["fuzz"]
        assert resumed.corpus.entries[0].fingerprint == last["fingerprint"]
        assert resumed.growth[0] == (1, len(last["features"]))

    def test_resume_fills_a_hole(self, tmp_path):
        """A parent killed at ``--jobs 2`` leaves a middle index missing;
        the resumed session runs exactly that index."""
        hole = 3
        with open(tmp_path / "records.jsonl", "w") as handle:
            for record in self.records:
                if record["run_index"] != hole:
                    handle.write(json.dumps(record) + "\n")
        executed = []
        engine, runner = _session(tmp_path, executed, runs=self.RUNS)
        summary = runner.run()
        assert executed == [hole]
        assert [record.run_index for record in summary.records] \
            == list(range(self.RUNS))
        assert engine.accounted == self.RUNS
        recorded = load_json_lines(str(tmp_path / "records.jsonl"))
        assert sorted(r["run_index"] for r in recorded) \
            == list(range(self.RUNS))

    def test_report_formats(self):
        text = format_report(self.report)
        assert "coverage:" in text
        assert "%d runs" % self.RUNS in text


class TestPinnedTrajectory:
    """A ``jobs=1`` session is deterministic from its seed; this one is
    pinned to what commit a109e33 (the last with a private fuzz harness)
    planned, learned and measured, with the learned features and what
    follows from them re-pinned when P3's tables became up*/down* over
    every surviving link (the run list and every status stayed)."""

    def test_seed_0_eight_runs_match_the_pinned_session(self, tmp_path):
        engine, runner = _session(tmp_path, runs=8, jobs=1)
        summary = runner.run()
        records = load_json_lines(str(tmp_path / "records.jsonl"))
        steps = [(r["run_index"], r["fuzz"]["lineage"], r["fuzz"]["op"],
                  r["seed"], r["status"], len(r["fuzz"]["features"]))
                 for r in records]
        assert steps == [
            (0, "g:correlated-link-router:0", "seed",
             2386620223787653712, "pass", 36),
            (1, "g:false-alarm-storm:0", "seed",
             6625035737852725587, "pass", 32),
            (2, "g:fault-during-recovery:0", "seed",
             6472825155648837629, "pass", 37),
            (3, "g:flaky-links:0", "seed",
             3010554384421439401, "pass", 37),
            (4, "g:random-multi:0", "seed",
             5951196366663144337, "pass", 34),
            (5, "g:flaky-links:0/m40:retarget", "retarget",
             4817939335188362069, "pass", 36),
            (6, "g:flaky-links:0/m49:swap-model", "swap-model",
             3276882237784319572, "pass", 36),
            (7, "g:flaky-links:0/m56:perturb-time", "perturb-time",
             3866202923197141521, "pass", 37),
        ]
        learned = [r["fuzz"]["new_features"] for r in records]
        assert learned[0] == records[0]["fuzz"]["features"]
        assert learned[1:] == [
            ["bl|contained|0|1", "bl|contained|0|3", "dk|LOCKED|INVAL",
             "trig|false_alarm"],
            ["bl|contained|1|3", "pe|P2>P1|x",
             "re|dissemination round 1: no message from 3 at 1", "rs|1"],
            ["ab|3", "bl|contained|0|2", "bl|contained|1|1",
             "dk|LOCKED|FWD_GET"],
            [],
            ["ab|6", "bl|contained|0|0", "dk|EXCLUSIVE|UC_READ"],
            [],
            [],
        ]
        # The same sequence with every feature list spelled out: a run
        # that swaps one feature for another keeps its count and fails
        # here.
        full = [[r["run_index"], r["fuzz"]["lineage"], r["fuzz"]["op"],
                 r["seed"], r["status"], r["fuzz"]["features"],
                 r["fuzz"]["new_features"]] for r in records]
        assert hashlib.sha256(json.dumps(
            full, sort_keys=True).encode()).hexdigest() == (
            "4d7e5ae2bcc2c257395a3160f9d4fd6f1931f249b407b05ec550d177ffa327e0")
        report = engine.report(runner, summary)
        assert report["coverage_features"] == 51
        assert report["corpus_size"] == 5
        assert report["growth"] == [(1, 36), (2, 40), (3, 44), (4, 48),
                                    (6, 51)]
        assert report["containment_ns"] == {
            "count": 8, "p50": 16205092, "p95": 225851450.0,
            "p99": 225851450.0}
        # Every percentile is an observed episode, not a bucket bound.
        observed = [round(ms * 1e6) for r in records
                    for ms in containment_times_ms(r["metrics"])]
        assert report["containment_ns"]["p50"] in observed
        assert report["stats"] == {
            "runs": 8, "pass": 8, "fail": 0, "crashed": 0, "hung": 0,
            "skip_noop": 0, "skip_dup": 1, "new_coverage_runs": 5,
            "injector_skips": 0, "fresh_roots": 0}


class TestStrategies:
    def test_random_strategy_plans_only_roots(self):
        engine = FuzzEngine(strategy="random")
        campaign = CampaignRunner(campaign_seed=0)
        for run_index in range(12):
            _schedule, lineage, op = engine._plan_next(campaign, run_index)
            assert op == "seed"
            assert lineage.startswith("g:")
            assert "/m" not in lineage

    def test_coverage_strategy_breeds_after_seeding(self):
        engine = FuzzEngine()
        campaign = CampaignRunner(campaign_seed=0)
        # Fake a seeded state: corpus + coverage without running sims.
        for salt, kind in enumerate(sorted(SCHEDULE_GENERATORS)):
            entry = _entry(kind, 0, ["f|%s" % kind])
            engine.coverage.add(entry.features)
            engine.corpus.add(entry)
            engine.seen_fingerprints.add(entry.fingerprint)
        ops = []
        plans = []
        for run_index in range(len(SCHEDULE_GENERATORS), 40):
            schedule, lineage, op = engine._plan_next(campaign, run_index)
            ops.append(op)
            plans.append([lineage, schedule_fingerprint(schedule)])
        # Every draw is pinned: mutation or fresh root, parent, donor,
        # operator, schedule.  TestPinnedTrajectory's session makes only
        # three mutation plans, so a draw that depends on the process (an
        # unseeded coin flip, the wall clock's parity) can agree with it
        # by chance; it cannot agree on these 31.
        assert len(ops) - ops.count("seed") == 31
        assert hashlib.sha256(json.dumps(plans).encode()).hexdigest() == (
            "ae519a7062958e0f679fca1a040a3086b00d68cdbc1ab24e3b1cb944a2618da5")


class TestCli:
    def test_fuzz_session_and_replay(self, tmp_path, capsys):
        out = tmp_path / "session"
        code = cli_main(["fuzz", "--runs", "5", "--seed", "0", "--jobs",
                         "2", "--out", str(out), "--summary-json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["runs"] == 5
        assert payload["coverage_features"] > 0
        assert payload["out_dir"] == str(out)

        # Refuses to clobber an existing session without --resume.
        with pytest.raises(SystemExit):
            cli_main(["fuzz", "--runs", "5", "--seed", "0",
                      "--out", str(out)])

        # Resume extends the same directory.
        code = cli_main(["fuzz", "--runs", "6", "--seed", "0", "--out",
                         str(out), "--resume", "--summary-json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["runs"] == 6

        # Replay one record's schedule and seed; the exit code mirrors
        # the verdict.
        with open(out / "records.jsonl", encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        code = cli_main(["validate", "--schedule",
                         json.dumps(record["schedule"]),
                         "--seed", str(record["seed"])])
        verdict = capsys.readouterr().out.split("]")[0]
        assert verdict == "[%s" % record["status"].upper()
        assert (code == 0) == (record["status"]
                               == RunStatus.PASS.value)
