"""Campaign engine: schedules, records, the crash-isolated runner, the
shrinker, and the CLI subcommand."""

import json
import random

import pytest

from repro.campaign import (
    SCHEDULE_GENERATORS,
    CampaignRunner,
    FaultSchedule,
    RunRecord,
    RunStatus,
    TimedFault,
    make_schedule,
    repro_command,
    shrink_schedule,
)
from repro.campaign.records import (
    append_record,
    load_records,
)
from repro.campaign.runner import derive_run_seed
from repro.campaign.schedule import valid_for_machine
from repro.faults.models import FaultSpec


def false_alarm_schedule(num_nodes=4):
    return FaultSchedule(
        entries=(TimedFault(FaultSpec.false_alarm(1), time=0.0),),
        num_nodes=num_nodes, topology="mesh", name="one-alarm")


# ------------------------------------------------------------------ schedules

class TestSchedules:
    def test_roundtrip_through_json(self):
        rng = random.Random(3)
        for kind in SCHEDULE_GENERATORS:
            schedule = make_schedule(kind, rng, num_nodes=8)
            wire = json.dumps(schedule.to_dict())
            back = FaultSchedule.from_dict(json.loads(wire))
            assert back == schedule

    def test_phase_entry_roundtrip(self):
        entry = TimedFault(FaultSpec.node_failure(3), phase="P2",
                           phase_node=3)
        back = TimedFault.from_dict(entry.to_dict())
        assert back == entry

    def test_generators_produce_wellformed_schedules(self):
        rng = random.Random(11)
        for kind in SCHEDULE_GENERATORS:
            for _ in range(5):
                schedule = make_schedule(kind, rng, num_nodes=8)
                assert schedule.fault_count >= 1
                assert valid_for_machine(schedule, 8)
                # Multi-fault schedules never target the same thing twice.
                seen = set()
                for spec in schedule.specs():
                    assert not (spec.excluded_targets() & seen)
                    seen |= spec.excluded_targets()

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule("nope", random.Random(0))

    def test_valid_for_machine_rejects_out_of_range(self):
        schedule = FaultSchedule(
            entries=(TimedFault(FaultSpec.node_failure(7)),),
            num_nodes=8)
        assert valid_for_machine(schedule, 8)
        assert not valid_for_machine(schedule, 4)


# -------------------------------------------------------------------- records

class TestRecords:
    def test_append_load_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        record = RunRecord(run_index=3, seed=42, status=RunStatus.FAIL,
                           schedule=false_alarm_schedule().to_dict(),
                           problems=["line 0x80: stale"], restarts=1,
                           episodes=2, elapsed_s=1.5)
        append_record(path, record)
        loaded = load_records(path)
        assert loaded == [record]
        assert [r.run_index for r in loaded] == [3]

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        record = RunRecord(run_index=0, seed=1, status=RunStatus.PASS,
                           schedule=false_alarm_schedule().to_dict())
        append_record(path, record)
        with open(path, "a") as handle:
            handle.write('{"run_index": 1, "seed"')   # killed mid-append
        assert load_records(path) == [record]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_records(tmp_path / "absent.jsonl") == []

    def test_forensics_roundtrip_and_default(self):
        summary = {"verdict": "escape", "truncated": False,
                   "faults": [{"root": "F0", "violations": 2}]}
        record = RunRecord(run_index=0, seed=1, status=RunStatus.FAIL,
                           schedule=false_alarm_schedule().to_dict(),
                           forensics=summary)
        decoded = RunRecord.from_dict(record.to_dict())
        assert decoded.forensics == summary
        bare = RunRecord.from_dict({
            "run_index": 0, "seed": 0, "status": "pass", "schedule": {}})
        assert bare.forensics == {}


# --------------------------------------------------------------------- runner

class TestRunner:
    def test_seeds_are_deterministic_and_distinct(self):
        seeds = [derive_run_seed(7, index) for index in range(50)]
        assert seeds == [derive_run_seed(7, index) for index in range(50)]
        assert len(set(seeds)) == 50
        assert seeds != [derive_run_seed(8, index) for index in range(50)]

    def test_small_campaign_all_pass(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        runner = CampaignRunner(
            schedule=false_alarm_schedule(), runs=2, campaign_seed=5,
            out_path=str(path), timeout_s=120.0)
        summary = runner.run()
        assert summary.total == 2
        assert summary.counts[RunStatus.PASS] == 2
        assert summary.ok
        assert len(load_records(path)) == 2

    def test_resume_skips_completed_runs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        runner = CampaignRunner(
            schedule=false_alarm_schedule(), runs=2, campaign_seed=5,
            out_path=str(path), timeout_s=120.0)
        runner.run()
        executed = []
        resumed = CampaignRunner(
            schedule=false_alarm_schedule(), runs=3, campaign_seed=5,
            out_path=str(path), timeout_s=120.0,
            progress=lambda record: executed.append(record.run_index))
        summary = resumed.run()
        # Runs 0 and 1 came from the file; only run 2 actually executed.
        assert executed == [2]
        assert summary.total == 3
        assert summary.counts[RunStatus.PASS] == 3

    def test_resume_after_torn_tail_keeps_every_record(self, tmp_path):
        """Killed mid-append: the re-run record must start a fresh line
        instead of being glued onto the torn fragment and lost with it
        (regression: the file ended up holding runs [0, 2])."""
        path = tmp_path / "runs.jsonl"
        kwargs = dict(schedule=false_alarm_schedule(), campaign_seed=5,
                      out_path=str(path), timeout_s=120.0)
        CampaignRunner(runs=2, **kwargs).run()
        data = path.read_bytes()
        path.write_bytes(data[:-40])               # tear run 1's line
        assert [r.run_index for r in load_records(path)] == [0]
        executed = []
        summary = CampaignRunner(
            runs=3, progress=lambda record: executed.append(
                record.run_index), **kwargs).run()
        assert executed == [1, 2]
        assert summary.total == 3
        assert sorted(r.run_index for r in load_records(path)) == [0, 1, 2]

    def test_crashing_run_is_recorded_not_fatal(self, tmp_path):
        # Node 9 does not exist on a 4-node machine: the worker raises
        # deep inside the simulator.  The batch must survive with a
        # CRASHED record carrying the traceback.
        bad = FaultSchedule(
            entries=(TimedFault(FaultSpec.node_failure(9), time=0.0),),
            num_nodes=4, topology="mesh", name="bad-target")
        path = tmp_path / "runs.jsonl"
        runner = CampaignRunner(schedule=bad, runs=1, campaign_seed=1,
                                out_path=str(path), timeout_s=120.0)
        summary = runner.run()
        assert summary.counts[RunStatus.CRASHED] == 1
        assert not summary.ok
        (record,) = summary.records
        assert record.status is RunStatus.CRASHED
        assert "Error" in record.error

    def test_worker_forensics_payload_reaches_record(self):
        schedule = false_alarm_schedule()
        summary = {"verdict": "contained", "faults": []}
        record = CampaignRunner._record(0, 1, schedule,
                                        {"status": "fail",
                                         "forensics": summary})
        assert record.forensics == summary
        passing = CampaignRunner._record(0, 1, schedule, {"status": "pass"})
        assert passing.forensics == {}

    def test_watchdog_turns_wedged_run_into_hung(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        runner = CampaignRunner(
            schedule=false_alarm_schedule(), runs=1, campaign_seed=5,
            out_path=str(path), timeout_s=0.05)
        summary = runner.run()
        (record,) = summary.records
        assert record.status is RunStatus.HUNG
        assert "watchdog" in record.error
        assert not summary.ok


# ------------------------------------------------------------------- shrinker

class TestShrinker:
    def test_shrinks_to_minimal_failing_schedule(self):
        rng = random.Random(2)
        noise = [
            TimedFault(FaultSpec.false_alarm(n), time=137_000.0 * (n + 1))
            for n in (1, 2, 3)
        ]
        culprit = TimedFault(FaultSpec.node_failure(2), time=777_123.0)
        schedule = FaultSchedule(
            entries=tuple(noise[:2] + [culprit] + noise[2:]),
            num_nodes=8, topology="mesh", name="noisy")

        def still_fails(candidate):
            # Synthetic bug: failure reproduces iff node 2 is killed.
            return any(spec.target == 2 and not spec.is_link_fault
                       for spec in candidate.specs())

        result = shrink_schedule(schedule, still_fails)
        assert result.schedule.fault_count == 1
        (entry,) = result.schedule.entries
        assert entry.spec == culprit.spec
        assert entry.time == 0.0                      # timing simplified
        assert result.schedule.num_nodes == 4          # machine shrunk
        assert result.checks <= 30

    def test_crashing_predicate_counts_as_failing(self):
        schedule = false_alarm_schedule(num_nodes=8)

        def explodes(candidate):
            raise RuntimeError("predicate crashed")

        result = shrink_schedule(schedule, explodes)
        assert result.schedule.fault_count == 1

    def test_repro_command_roundtrips_schedule(self):
        """The repro is a ``validate --schedule`` command on the failing
        campaign's machine sizing."""
        import shlex

        from repro.cli import build_parser
        schedule = false_alarm_schedule()
        command = repro_command(schedule, seed=99, mem_per_node=128 << 10,
                                l2_size=16 << 10)
        argv = shlex.split(command)
        args = build_parser().parse_args(argv[argv.index("repro.cli") + 1:])
        assert args.command == "validate"
        assert FaultSchedule.from_dict(json.loads(args.schedule)) == schedule
        assert (args.seed, args.mem_kb, args.l2_kb) == (99, 128, 16)


# ------------------------------------------------------------------------ CLI

class TestCampaignCli:
    def test_campaign_subcommand_end_to_end(self, tmp_path, monkeypatch):
        """Without --out, the records land in the working directory under
        the generator's name and the campaign seed."""
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "--schedule", "false-alarm-storm", "--runs", "2",
            "--seed", "3", "--nodes-count", "4", "--timeout", "120",
        ])
        assert code == 0
        records = load_records(
            tmp_path / "campaign_false-alarm-storm_seed3.jsonl")
        assert [r.run_index for r in records] == [0, 1]
        assert all(r.status is RunStatus.PASS for r in records)

    def test_campaign_generator_subcommand(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "gen.jsonl"
        code = main([
            "campaign", "--schedule", "false-alarm-storm", "--runs", "1",
            "--seed", "3", "--nodes-count", "4", "--out", str(out),
            "--timeout", "120",
        ])
        assert code == 0
        assert len(load_records(out)) == 1
