"""Tests for the analysis helpers and the command-line interface."""

import pytest

from repro.analysis.tables import (
    format_series,
    format_table,
    shape_check_monotone,
)
from repro.cli import build_parser, main


class TestTables:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [(1, 2), (33, 4)])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert lines[2].startswith("-")
        assert "33" in lines[4]

    def test_format_series_headers(self):
        text = format_series("S", "x", ["y1", "y2"], [(1, 2, 3)])
        assert "x" in text and "y1" in text and "y2" in text

    def test_monotone_accepts_increasing(self):
        assert shape_check_monotone([1, 2, 3, 10])

    def test_monotone_rejects_big_dip(self):
        assert not shape_check_monotone([10, 5, 20])

    def test_monotone_tolerates_small_dip(self):
        assert shape_check_monotone([10.0, 9.5, 20.0], tolerance=0.10)


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(
            ["validate", "--fault", "false_alarm", "--target", "1"])
        assert args.fault == "false_alarm"

    def test_link_fault_requires_second_target(self):
        with pytest.raises(SystemExit):
            main(["validate", "--fault", "link_failure", "--target", "0",
                  "--nodes-count", "4", "--mem-kb", "64", "--l2-kb", "8"])

    def test_validate_command_runs(self, capsys):
        code = main(["validate", "--fault", "false_alarm", "--target", "0",
                     "--nodes-count", "4", "--mem-kb", "64", "--l2-kb", "8"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        # One block per episode, from RecoveryReport.describe; no audit
        # without --trace.
        assert "episode 0: trigger" in printed
        assert "survivors [0, 1, 2, 3]" in printed
        assert "  P4 done at +" in printed
        assert "containment audit" not in printed

    def test_removed_entry_points_are_rejected(self):
        """``bench`` is the one Figure 5.5 command and takes only the
        sweep's options; host speed is ``benchmarks/e2e``'s job.
        ``validate`` is the one single-fault command: ``trace`` and
        ``forensics`` are its ``--trace``."""
        parser = build_parser()
        for argv in (["scale", "--nodes", "4"], ["bench", "--micro"],
                     ["bench", "--flight-overhead"], ["trace"],
                     ["forensics"], ["validate", "--no-firewall"],
                     ["validate", "--format", "json"], ["lint"],
                     ["campaign", "--replay", "{}"],
                     ["fuzz", "--replay", "g:flaky-links:0"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        subcommands, = (action for action in parser._actions
                        if action.dest == "command")
        assert len(subcommands.choices) == 8

        def options(command):
            return {flag for action in subcommands.choices[command]._actions
                    for flag in action.option_strings} - {"-h", "--help"}

        assert options("bench") == {
            "--seed", "--sizes", "--max-nodes", "--faults", "--topology",
            "--mem-kb", "--l2-kb", "--out", "--history"}
        assert options("validate") == {
            "--seed", "--mem-kb", "--l2-kb", "--nodes-count", "--fault",
            "--target", "--target2", "--dwell", "--drop-rate", "--trace",
            "--max-events", "--episode", "--schedule"}


NODE_FAILURE_3 = ["validate", "--fault", "node_failure", "--target", "3",
                  "--nodes-count", "4", "--mem-kb", "64", "--l2-kb", "8"]


class TestTraceCli:
    """``validate --trace``: the Chrome trace and the episode blocks."""

    def test_trace_command_writes_chrome_trace(self, capsys, tmp_path):
        import json
        out = tmp_path / "trace.json"
        code = main(NODE_FAILURE_3 + ["--trace", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "episode 0" in printed       # critical-path summary
        for phase in ("P1", "P2", "P3", "P4"):
            assert "  %s done at +" % phase in printed
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_trace_max_events_cap(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["validate", "--fault", "false_alarm", "--target", "0",
                     "--nodes-count", "4", "--mem-kb", "64", "--l2-kb", "8",
                     "--max-events", "10", "--trace", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "dropped" in captured.out
        assert "TRUNCATED TRACE" in captured.out
        assert "WARNING: trace truncated" in captured.err

    def test_trace_single_episode_export(self, capsys, tmp_path):
        import json
        out = tmp_path / "episode.json"
        code = main(NODE_FAILURE_3 + ["--episode", "0", "--trace", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        # Only the selected episode's summary is printed, and the trace
        # starts no earlier than its trigger.
        assert printed.count("episode ") == 1
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_trace_episode_out_of_range(self, tmp_path):
        with pytest.raises(SystemExit, match="out of range"):
            main(["validate", "--fault", "false_alarm", "--target", "0",
                  "--nodes-count", "4", "--mem-kb", "64", "--l2-kb", "8",
                  "--episode", "5", "--trace", str(tmp_path / "t.json")])


class TestForensicsCli:
    """``validate --trace``: the containment audit, printed and written
    to ``<trace>.forensics.json``."""

    def test_forensics_text_report(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(NODE_FAILURE_3 + ["--trace", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "containment audit: contained" in printed
        assert "fault F0" in printed and "blast radius" in printed
        assert (tmp_path / "trace.json.forensics.json").exists()

    def test_forensics_json_format(self, capsys, tmp_path):
        import json
        out = tmp_path / "trace.json"
        code = main(NODE_FAILURE_3 + ["--trace", str(out)])
        assert code == 0
        payload = json.loads(
            (tmp_path / "trace.json.forensics.json").read_text())
        assert payload["verdict"] == "contained"
        (fault,) = payload["faults"]
        assert fault["root"] == "F0" and fault["blast"]["nodes"]

    def test_escape_verdict_exits_nonzero(self, capsys, tmp_path,
                                          monkeypatch):
        from repro.telemetry.forensics import ForensicsReport
        monkeypatch.setattr(ForensicsReport, "verdict",
                            property(lambda self: "escape"))
        code = main(NODE_FAILURE_3 + ["--trace", str(tmp_path / "t.json")])
        assert code == 1
        assert "[PASS]" in capsys.readouterr().out


#: ROADMAP item 3's shape 1: link 2-4 fails, then node 2 loops as it
#: enters P3.  The event heap drains before recovery ends.
DRAINED_HEAP = {"num_nodes": 8, "topology": "mesh", "entries": [
    {"spec": {"fault_type": "link_failure", "target": [2, 4]}, "time": 0.0},
    {"spec": {"fault_type": "infinite_loop", "target": 2}, "time": 0.0,
     "phase": "P3", "phase_node": 2}]}


def _schedule_argv(schedule, seed, *extra):
    import json
    return ["validate", "--schedule", json.dumps(schedule),
            "--seed", str(seed)] + list(extra)


class TestValidateSchedule:
    """``validate --schedule``: any campaign record's run, replayed."""

    @pytest.fixture(scope="class")
    def red_records(self, tmp_path_factory):
        """Runs 0-3 of the red ``correlated-link-router`` campaign at seed
        0: run 0 loses the whole machine (ROADMAP item 2, sub-class A),
        run 3 over-marks (sub-class B)."""
        from repro.campaign.records import load_records
        out = tmp_path_factory.mktemp("red") / "red.jsonl"
        main(["campaign", "--runs", "4", "--seed", "0", "--schedule",
              "correlated-link-router", "--out", str(out)])
        return {record.run_index: record for record in load_records(out)}

    @pytest.mark.parametrize("run_index", [0, 3])
    def test_fail_record_replays_exactly(self, red_records, run_index,
                                         capsys):
        record = red_records[run_index]
        assert record.status.value == "fail"
        code = main(_schedule_argv(record.schedule, record.seed))
        printed = capsys.readouterr().out.splitlines()
        assert code == 1
        assert printed[0].startswith("[FAIL] ")
        assert "restarts=%d " % record.restarts in printed[0]
        assert [line[4:] for line in printed
                if line.startswith("  ! ")] == record.problems
        assert sum(line.startswith("episode ")
                   for line in printed) == record.episodes

    def test_printed_repro_replays_the_campaign_machine(self, red_records,
                                                        capsys):
        """A campaign's printed repro carries its sizing: run 3 at 128 KB
        of memory and a 16 KB L2 fails on other lines than at the
        default 64 KB/8 KB, and its repro reproduces those."""
        import shlex
        from repro.campaign import FaultSchedule
        from repro.campaign.runner import print_failure, run_schedule_isolated
        default = red_records[3]
        record = run_schedule_isolated(
            FaultSchedule.from_dict(default.schedule), default.seed,
            mem_per_node=128 << 10, l2_size=16 << 10)
        assert record.problems and record.problems != default.problems
        capsys.readouterr()
        print_failure(record, 128 << 10, 16 << 10)
        repro, = (line.split("repro: ", 1)[1]
                  for line in capsys.readouterr().out.splitlines()
                  if "repro: " in line)
        argv = shlex.split(repro)
        assert main(argv[argv.index("repro.cli") + 1:]) == 1
        assert [line[4:] for line in capsys.readouterr().out.splitlines()
                if line.startswith("  ! ")] == record.problems

    def test_drained_heap_prints_the_pools_hung_error(self, capsys):
        from repro.campaign import FaultSchedule
        from repro.campaign.runner import run_schedule_isolated
        record = run_schedule_isolated(
            FaultSchedule.from_dict(DRAINED_HEAP), 0)
        assert record.status.value == "hung"
        assert main(_schedule_argv(DRAINED_HEAP, 0)) == 1
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["[HUNG] %s: %s" % (
            FaultSchedule.from_dict(DRAINED_HEAP), record.error)]
        assert "event heap drained" in record.error

    def test_trace_of_a_two_fault_run(self, capsys, tmp_path):
        """A HUNG run still writes the trace and audit of its events."""
        out = tmp_path / "hung.json"
        code = main(_schedule_argv(DRAINED_HEAP, 0, "--trace", str(out)))
        assert code == 1
        printed = capsys.readouterr().out
        assert printed.startswith("[HUNG] ")
        assert "containment audit" in printed
        assert out.exists()
        assert (tmp_path / "hung.json.forensics.json").exists()

    def test_bad_json_is_rejected(self):
        for payload in ("not json", "[1, 2]", '{"entries": [{"spec": {}}]}'):
            with pytest.raises(SystemExit, match="bad --schedule JSON"):
                main(["validate", "--schedule", payload])

    def test_fault_and_schedule_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_schedule_argv(DRAINED_HEAP, 0, "--fault", "node_failure"))
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestBenchCli:
    def test_bench_small_sweep(self, capsys, tmp_path):
        import json
        out = tmp_path / "BENCH_scalability.json"
        code = main(["bench", "--sizes", "4", "8", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Recovery scalability" in printed
        payload = json.loads(out.read_text())
        assert payload["sizes"] == [4, 8]
        assert all(r["completed"] for r in payload["results"])

    def test_bench_two_node_point_runs(self, capsys, tmp_path):
        # The degenerate two-node barrier tree is not a default sweep
        # size but must still recover when asked for.
        code = main(["bench", "--sizes", "2", "4", "--mem-kb", "64",
                     "--l2-kb", "8", "--out", str(tmp_path / "b.json")])
        assert code == 0
        assert "total [ms]" in capsys.readouterr().out

    def test_bench_rejects_empty_size_list(self):
        import pytest as _pytest
        with _pytest.raises(SystemExit):
            main(["bench", "--max-nodes", "2"])


class TestCampaignSummaryJson:
    def test_summary_json_is_machine_readable(self, capsys, tmp_path):
        import json
        out = tmp_path / "campaign.jsonl"
        code = main(["campaign", "--runs", "2", "--nodes-count", "4",
                     "--schedule", "false-alarm-storm", "--summary-json",
                     "--mem-kb", "64", "--l2-kb", "8", "--out", str(out)])
        printed = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(printed[-1])
        assert summary["total"] == 2
        assert summary["records"] == str(out)
        assert set(summary) >= {"passed", "failed", "crashed", "hung", "ok"}
        # Exit status mirrors batch health: non-zero iff CRASHED/HUNG runs.
        assert (code == 0) == summary["ok"]
        # Every record carries its per-run metrics summary.
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            if record["status"] in ("pass", "fail"):
                assert "recovery" in record["metrics"]
