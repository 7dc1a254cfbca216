"""Fleet observability read/write sides: status sidecars, the aggregated
report, and bench provenance stamps."""

import json
import os
import re
import subprocess

import pytest

from repro.telemetry.report import (
    aggregate,
    collect_sources,
    render_html,
    write_report,
)
from repro.telemetry.scalability import (
    append_bench_history,
    bench_meta,
    write_bench_json,
)
from repro.telemetry.status import (
    StatusWriter,
    format_status,
    read_status,
    status_sidecar_path,
)

# ---------------------------------------------------------------- status


class TestStatusWriter:
    def test_update_writes_readable_document(self, tmp_path):
        path = str(tmp_path / "records.jsonl.status.json")
        writer = StatusWriter(path, kind="campaign", total=10)
        assert writer.update(done=3, counts={"pass": 3},
                             in_flight=[{"run_index": 4,
                                         "elapsed_s": 0.5}])
        doc = read_status(path)
        assert doc["kind"] == "campaign"
        assert doc["total"] == 10 and doc["done"] == 3
        assert doc["counts"] == {"pass": 3}
        assert doc["in_flight"][0]["run_index"] == 4
        assert doc["finished"] is False
        assert doc["pid"] == os.getpid()

    def test_updates_throttle_unless_forced_or_final(self, tmp_path):
        path = str(tmp_path / "status.json")
        writer = StatusWriter(path, kind="fuzz", total=None,
                              min_interval_s=3600.0)
        assert writer.update(done=1)
        assert not writer.update(done=2)        # inside the interval
        assert read_status(path)["done"] == 1   # document untouched
        assert writer.update(done=2, force=True)
        assert writer.update(done=3, finished=True)
        doc = read_status(path)
        assert doc["done"] == 3 and doc["finished"] is True

    def test_no_tmp_droppings_left_behind(self, tmp_path):
        path = str(tmp_path / "status.json")
        StatusWriter(path, kind="fuzz").update(done=1)
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "status.json"]

    def test_extras_round_trip(self, tmp_path):
        path = str(tmp_path / "status.json")
        StatusWriter(path, kind="fuzz").update(
            done=5, extras={"coverage_features": 41, "corpus_size": 7})
        doc = read_status(path)
        assert doc["extras"] == {"coverage_features": 41, "corpus_size": 7}

    def test_format_status_renders_progress_and_counts(self, tmp_path):
        path = str(tmp_path / "x.jsonl.status.json")
        writer = StatusWriter(path, kind="campaign", total=8)
        writer.update(done=8, counts={"pass": 7, "fail": 1}, finished=True)
        text = format_status(read_status(path))
        assert "campaign sweep [finished]" in text
        assert "8/8" in text
        assert "pass=7" in text and "fail=1" in text


class TestSidecarResolution:
    def test_directory_resolves_to_inner_status(self, tmp_path):
        assert status_sidecar_path(str(tmp_path)) == str(
            tmp_path / "status.json")

    def test_records_path_gains_suffix(self):
        assert status_sidecar_path("out/records.jsonl") == \
            "out/records.jsonl.status.json"

    def test_sidecar_paths_pass_through(self):
        assert status_sidecar_path("a/b.jsonl.status.json") == \
            "a/b.jsonl.status.json"
        assert status_sidecar_path("session/status.json") == \
            "session/status.json"

    def test_read_status_absent_or_torn_is_none(self, tmp_path):
        assert read_status(str(tmp_path / "nope.jsonl")) is None
        torn = tmp_path / "torn.jsonl.status.json"
        torn.write_text('{"kind": "campaign", "done"')
        assert read_status(str(tmp_path / "torn.jsonl")) is None


# --------------------------------------------------------------- report


def _campaign_record(status="pass", durations=(20.0,), blast=None):
    record = {
        "run_index": 0,
        "status": status,
        "metrics": {
            "recovery": {
                "episodes": len(durations),
                "timeline": [{"trigger_ms": 1.0, "total_ms": duration,
                              "shutdown_nodes": [], "restarts": []}
                             for duration in durations],
            },
        },
    }
    if blast is not None:
        record["forensics"] = {
            "faults": [{"root": 0, "blast_nodes": list(blast)}]}
    return record


def _fuzz_record(run_index, new_features=(), durations=(), status="pass"):
    """A fuzz session's line: a campaign record plus the ``fuzz`` section
    (an aborted run has no metrics)."""
    record = (_campaign_record(status, durations)
              if status in ("pass", "fail") else {"status": status})
    record["run_index"] = run_index
    record["fuzz"] = {
        "lineage": "g:random-multi:%d" % run_index,
        "op": "seed",
        "fingerprint": "%032x" % run_index,
        "features": list(new_features),
        "new_features": list(new_features),
        "escape": False,
        "injector_skips": 0,
    }
    return record


def _write_jsonl(path, records):
    with open(str(path), "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestCollectSources:
    def test_kind_sniffing(self, tmp_path):
        campaign = tmp_path / "records.jsonl"
        _write_jsonl(campaign, [_campaign_record()])
        session = tmp_path / "session"
        session.mkdir()
        _write_jsonl(session / "records.jsonl", [_fuzz_record(0)])
        fuzz_file = tmp_path / "fuzz.jsonl"
        _write_jsonl(fuzz_file, [_fuzz_record(0)])

        sources = collect_sources([str(campaign), str(session),
                                   str(fuzz_file)])
        assert [source["kind"] for source in sources] == [
            "campaign", "fuzz", "fuzz"]
        assert all(source["records"] for source in sources)

    def test_torn_tail_line_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(_campaign_record()) + "\n"
                        + '{"status": "pa')
        (source,) = collect_sources([str(path)])
        assert len(source["records"]) == 1


class TestAggregate:
    def test_full_aggregate(self, tmp_path):
        campaign = tmp_path / "records.jsonl"
        _write_jsonl(campaign, [
            _campaign_record("pass", durations=(20.0,), blast=[1]),
            _campaign_record("fail", durations=(35.0, 80.0), blast=[1, 2]),
        ])
        session = tmp_path / "session"
        session.mkdir()
        _write_jsonl(session / "records.jsonl", [
            _fuzz_record(0, new_features=["a", "b"], durations=(25.0,)),
            _fuzz_record(1, new_features=["c"], status="hung"),
        ])
        agg = aggregate(collect_sources([str(campaign), str(session)]))

        assert agg["runs"] == 4
        assert agg["outcomes"] == {"pass": 2, "fail": 1, "crashed": 0,
                                   "hung": 1}
        # 3 campaign episodes + 1 fuzz episode, one place to read them.
        assert agg["containment_ms"]["count"] == 4
        assert agg["containment_ms"]["p50"] is not None
        assert agg["containment_ms"]["p50"] <= agg["containment_ms"]["p99"]
        assert "availability" not in agg
        assert agg["blast_radius"] == {"1": 1, "2": 1}
        assert agg["coverage_growth"] == [(1, 2), (2, 3)]

    def test_fuzz_runs_count_in_the_containment_histogram(self, tmp_path):
        """A fuzz record is a campaign record: its completed episodes are
        in the fleet's containment distribution; an episode that never
        completed is in none."""
        campaign = tmp_path / "records.jsonl"
        _write_jsonl(campaign, [_campaign_record(durations=(20.0, None))])
        session = tmp_path / "session"
        session.mkdir()
        _write_jsonl(session / "records.jsonl", [
            _fuzz_record(0, ["a"], durations=(30.0, 40.0)),
            _fuzz_record(1, ["b"], durations=(50.0,), status="fail"),
            _fuzz_record(2, status="crashed"),
        ])
        alone = aggregate(collect_sources([str(campaign)]))
        mixed = aggregate(collect_sources([str(campaign), str(session)]))
        assert alone["containment_ms"]["count"] == 1
        assert mixed["containment_ms"]["count"] == 4
        assert mixed["containment_ms"]["mean"] == 35.0
        assert mixed["containment_ms"]["max"] == 50.0


class TestRenderHtml:
    def test_report_is_self_contained_with_all_sections(self, tmp_path):
        campaign = tmp_path / "records.jsonl"
        _write_jsonl(campaign, [_campaign_record(blast=[1, 2])])
        session = tmp_path / "session"
        session.mkdir()
        _write_jsonl(session / "records.jsonl",
                     [_fuzz_record(0, ["a"]), _fuzz_record(1, ["b"])])
        out = tmp_path / "report.html"
        agg = write_report([str(campaign), str(session)], str(out),
                           title="smoke <report>")
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "smoke &lt;report&gt;" in text          # titles escaped
        assert "Outcome mix" in text
        assert "Containment time" in text
        assert "Availability" not in text
        assert "Blast-radius distribution" in text
        assert "Coverage growth" in text
        assert "<svg" in text
        # Self-contained: no external fetches of any kind.
        assert "http://" not in text and "https://" not in text
        assert agg["runs"] == 3

    def test_empty_aggregate_renders_placeholders(self):
        agg = aggregate([])
        text = render_html(agg)
        assert "no recovery episodes observed" in text
        assert "no fuzz sessions" in text


# ------------------------------------------------------ bench provenance


class TestBenchProvenance:
    def test_bench_meta_carries_sha_and_utc_timestamp(self):
        meta = bench_meta()
        # In this work tree the SHA must resolve; in CI GITHUB_SHA would.
        assert re.fullmatch(r"[0-9a-f]{40}|unknown", meta["git_sha"])
        assert meta["timestamp"].endswith("+00:00")

    def test_write_bench_json_stamps_meta_once(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        write_bench_json({"benchmark": "x", "events_per_sec": {"a": 1}},
                         path)
        payload = json.loads(open(path).read())
        assert payload["meta"]["git_sha"]
        # An existing stamp is preserved, not overwritten.
        write_bench_json({"benchmark": "x",
                          "meta": {"git_sha": "pinned"}}, path)
        assert json.loads(open(path).read())["meta"] == {
            "git_sha": "pinned"}

    def test_append_bench_history_keeps_headlines_only(self, tmp_path):
        """The one live payload is ``run_scalability_sweep``'s: its line
        is the sublinear verdicts and the seed, never the per-point
        results."""
        path = str(tmp_path / "BENCH_history.jsonl")
        verdict = {"node_failure": {"ok": True, "nodes": [4, 16],
                                    "total_ms": [12.7, 24.5],
                                    "latency_ratio": 1.928,
                                    "node_ratio": 4.0}}
        sweep = {"version": 1, "benchmark": "recovery-scalability",
                 "topology": "mesh", "sizes": [4, 8, 16],
                 "fault_classes": ["node_failure"],
                 "mem_per_node": 65536, "l2_size": 8192, "seed": 3,
                 "results": [{"huge": "blob"}] * 50,
                 "sublinear": verdict}
        append_bench_history(sweep, path)
        append_bench_history(dict(sweep, seed=4,
                                  meta={"git_sha": "pinned"}), path)
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        for line in lines:                          # compact, diffable
            assert set(line) == {"benchmark", "meta", "seed", "sublinear"}
            assert line["benchmark"] == "recovery-scalability"
            assert line["sublinear"] == verdict
        assert [line["seed"] for line in lines] == [3, 4]
        assert lines[0]["meta"]["git_sha"]          # stamped when absent
        assert lines[1]["meta"] == {"git_sha": "pinned"}

    def test_ci_history_files_are_tracked_by_git(self):
        """CI appends to ``--history`` files and DESIGN §15 calls them
        committed; an ignore pattern once kept the file out of the tree."""
        root = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
        try:
            inside = subprocess.run(
                ["git", "rev-parse", "--show-toplevel"], cwd=root,
                capture_output=True, text=True)
        except FileNotFoundError:
            pytest.skip("git is not installed")
        if (inside.returncode != 0
                or os.path.realpath(inside.stdout.strip()) != root):
            pytest.skip("not a git checkout of this repo")
        with open(os.path.join(root, ".github", "workflows", "ci.yml"),
                  encoding="utf-8") as handle:
            named = set(re.findall(r"--history[ \t]+([\w./-]+)",
                                   handle.read()))
        assert named, "ci.yml no longer passes --history anywhere"
        for name in sorted(named):
            tracked = subprocess.run(
                ["git", "ls-files", "--error-unmatch", name], cwd=root,
                capture_output=True, text=True)
            assert tracked.returncode == 0, (
                "%s is named by ci.yml but not tracked: %s"
                % (name, tracked.stderr.strip()))
