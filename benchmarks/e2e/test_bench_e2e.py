"""Smoke test of the benchmark itself (``python -m pytest benchmarks/e2e -q``).

Runs the suite once at ``--smoke`` size with two untraced repeats per
workload and checks what comes out against BENCHMARK.json.  Not part of
tier-1 (``testpaths`` is ``tests``): it costs about half a minute.
"""

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.run import HERE, ROOT, benchmark_spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "2",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_spec_limits():
    spec = benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() \
        <= spec["end_to_end"][0].items()


def test_result_lines_follow_the_schema(suite):
    payload, _ = suite
    spec = benchmark_spec()
    assert set(payload["workloads"]) == {
        entry["name"] for entry in spec["workloads"]}
    for name, entry in payload["workloads"].items():
        for run, key in [(run, "end_to_end") for run in entry["runs"]] \
                + [(entry["traced"], "per_layer")]:
            assert run["correct"] is True and run["failed"] == 0, name
            assert run["attempted"] >= 1
            assert {metric["name"]: metric["unit"] for metric in spec[key]} \
                == {metric: value["unit"]
                    for metric, value in run["metrics"].items()}, name
            assert all(isinstance(value["value"], (int, float))
                       for value in run["metrics"].values())
        assert all(run["metrics"][metric["name"]]["value"] > 0
                   for run in entry["runs"] for metric in spec["end_to_end"])


def test_every_metric_is_printed_with_its_unit(suite):
    _, stdout = suite
    spec = benchmark_spec()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.search(r"^\s+%s\s+\S+ %s$" % (re.escape(metric["name"]),
                                                re.escape(metric["unit"])),
                         stdout, re.MULTILINE), metric["name"]
    assert "fail_share" in stdout and "sim_digest" in stdout


def test_smoke_runs_repeat_their_digests(suite):
    payload, _ = suite
    for name, entry in payload["workloads"].items():
        first, second = entry["runs"]
        assert first["sim_digest"] == second["sim_digest"], name
        shared = len(entry["traced"]["op_digests"])
        assert entry["traced"]["op_digests"] \
            == first["op_digests"][:shared], name


def test_layers_account_for_the_traced_time(suite):
    payload, _ = suite
    for name, entry in payload["workloads"].items():
        metrics = entry["traced"]["metrics"]
        assert metrics["trace.accounted_share"]["value"] >= 0.9, name
        assert metrics["trace.overhead_ratio"]["value"] > 0, name


def test_compare_accepts_a_run_against_itself(suite):
    payload, _ = suite
    rows = compare.compare(payload, payload, benchmark_spec())
    assert len(rows) == 4 * (2 + len(benchmark_spec()["end_to_end"]))
    assert not [row for row in rows if row[2] == "worse"]


def test_compare_flags_a_regression_and_a_model_change(suite):
    payload, _ = suite
    slower = json.loads(json.dumps(payload))
    entry = slower["workloads"]["hive-pmake"]
    for run in entry["runs"]:
        run["metrics"]["ops_per_s"]["value"] *= 0.5
    entry["sim_digest"] = "0" * 64
    worse = {(row[0], row[1]) for row in compare.compare(
        payload, slower, benchmark_spec()) if row[2] == "worse"}
    assert worse == {("hive-pmake", "ops_per_s"),
                     ("hive-pmake", "sim_digest")}
