"""Tests for repro.lint: the AST invariant linter.

Each rule gets a golden "bad module" fixture asserting exact findings,
plus suppression handling, baseline round-trips, and — the gate the CI
job relies on — a check that the real ``src/repro`` tree lints clean
with an empty baseline.
"""

import json
import textwrap

import pytest

from repro.lint import (
    Module,
    Project,
    Severity,
    all_rules,
    apply_baseline,
    format_json,
    format_text,
    lint_project,
    load_baseline,
    run_lint,
    write_baseline,
)


def make_module(source, rel="sim/bad.py"):
    return Module(rel, textwrap.dedent(source))


def lint_source(source, rel="sim/bad.py"):
    return lint_project(Project([make_module(source, rel)]))


def rules_of(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------- determinism

class TestDeterminismRules:
    def test_wall_clock_flagged_in_sim_zone(self):
        findings = lint_source("""
            import time

            def now():
                return time.time()
        """)
        (finding,) = findings
        assert finding.rule == "wall-clock"
        assert finding.severity is Severity.ERROR
        assert finding.line == 5
        assert "time.time" in finding.message

    def test_wall_clock_via_from_import_and_alias(self):
        findings = lint_source("""
            import time as t
            from datetime import datetime

            def stamp():
                return t.monotonic(), datetime.now()
        """)
        assert rules_of(findings) == ["wall-clock", "wall-clock"]

    def test_wall_clock_ignored_outside_zones(self):
        findings = lint_source("""
            import time

            def now():
                return time.time()
        """, rel="workloads/bench.py")
        assert findings == []

    def test_unseeded_random_flagged(self):
        findings = lint_source("""
            import random

            def pick(items):
                return items[random.randrange(len(items))]
        """)
        (finding,) = findings
        assert finding.rule == "unseeded-random"
        assert "random.Random" in finding.message

    def test_seeded_random_instances_allowed(self):
        findings = lint_source("""
            import random

            def make_rng(seed):
                rng = random.Random(seed)
                return rng.random() + rng.randint(0, 3)
        """)
        assert findings == []

    def test_sim_rng_draws_allowed(self):
        findings = lint_source("""
            def jitter(sim):
                return sim.rng.uniform(0.0, 5.0)
        """)
        assert findings == []

    def test_unordered_iteration_over_set_flagged(self):
        findings = lint_source("""
            def fan_out(sharers):
                for node in set(sharers):
                    yield node
                return [n for n in {1, 2} | set(sharers)]
        """)
        assert rules_of(findings) == ["unordered-iter", "unordered-iter"]
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_dict_keys_iteration_flagged(self):
        findings = lint_source("""
            def drain(table):
                for line in table.keys():
                    yield line
        """)
        assert rules_of(findings) == ["unordered-iter"]

    def test_sorted_iteration_allowed(self):
        findings = lint_source("""
            def fan_out(sharers):
                for node in sorted(set(sharers)):
                    yield node
        """)
        assert findings == []


# ------------------------------------------------------------ telemetry guard

class TestTelemetryGuard:
    def test_unguarded_emit_flagged(self):
        findings = lint_source("""
            class Router:
                def drop(self, packet):
                    self.trace.emit("pkt", "drop", node=self.router_id,
                                    cause=None)
        """, rel="interconnect/router.py")
        (finding,) = findings
        assert finding.rule == "telemetry-guard"
        assert "self.trace" in finding.message

    def test_guarded_emit_allowed(self):
        findings = lint_source("""
            class Router:
                def drop(self, packet):
                    tr = self.trace
                    if tr is not None:
                        tr.emit("pkt", "drop", node=self.router_id,
                                cause=None)
        """, rel="interconnect/router.py")
        assert findings == []

    def test_guard_must_cover_same_receiver(self):
        findings = lint_source("""
            class Router:
                def drop(self, packet, other):
                    tr = self.trace
                    if other is not None:
                        tr.emit("pkt", "drop", node=self.router_id,
                                cause=None)
        """, rel="interconnect/router.py")
        assert rules_of(findings) == ["telemetry-guard"]

    def test_unguarded_metrics_instrument_flagged(self):
        findings = lint_source("""
            class Engine:
                def note(self):
                    self.metrics.counter("protocol.stray").inc()
        """, rel="coherence/protocol.py")
        assert rules_of(findings) == ["telemetry-guard"]

    def test_guarded_metrics_allowed(self):
        findings = lint_source("""
            class Engine:
                def note(self):
                    metrics = self.metrics
                    if metrics is not None:
                        metrics.counter("protocol.stray").inc()
        """, rel="coherence/protocol.py")
        assert findings == []

    def test_unguarded_profiler_dispatch_flagged(self):
        findings = lint_source("""
            class Simulator:
                def step(self, call):
                    prof = self.profiler
                    prof.dispatch(call.callback, call.args)
        """, rel="sim/engine.py")
        assert rules_of(findings) == ["telemetry-guard"]
        assert "prof" in findings[0].message

    def test_guarded_profiler_dispatch_allowed(self):
        findings = lint_source("""
            class Simulator:
                def step(self, call):
                    prof = self.profiler
                    if prof is not None:
                        prof.dispatch(call.callback, call.args)
                    else:
                        call.callback(*call.args)
        """, rel="sim/engine.py")
        assert findings == []

    def test_unrelated_dispatch_receivers_ignored(self):
        findings = lint_source("""
            class Magic:
                def handle(self, message):
                    self.table.dispatch(message)
        """, rel="node/magic.py")
        assert findings == []

    def test_telemetry_package_is_exempt(self):
        findings = lint_source("""
            def replay(recorder, events):
                for event in events:
                    recorder.emit(event.category, event.name)
        """, rel="telemetry/replay.py")
        assert findings == []


# ------------------------------------------------------------ telemetry cause

class TestTelemetryCause:
    def test_emit_without_cause_flagged_in_packet_zone(self):
        findings = lint_source("""
            class Router:
                def drop(self, packet):
                    tr = self.trace
                    if tr is not None:
                        tr.emit("pkt", "drop", node=self.router_id)
        """, rel="interconnect/router.py")
        (finding,) = findings
        assert finding.rule == "telemetry-cause"
        assert "cause" in finding.message

    def test_explicit_cause_none_allowed(self):
        # cause=None states "no causal parent" explicitly; only the
        # *omission* of the keyword hides a hop from the forensic DAG.
        findings = lint_source("""
            class Router:
                def drop(self, packet):
                    tr = self.trace
                    if tr is not None:
                        tr.emit("pkt", "drop", node=self.router_id,
                                cause=packet.cause_eid)
        """, rel="interconnect/router.py")
        assert findings == []

    def test_rule_covers_magic_and_coherence(self):
        source = """
            class Handler:
                def note(self, magic):
                    tr = magic.trace
                    if tr is not None:
                        tr.emit("protocol", "stray", node=magic.node_id)
        """
        for rel in ("node/magic.py", "coherence/protocol.py"):
            assert rules_of(lint_source(source, rel)) == ["telemetry-cause"]

    def test_non_packet_zones_unaffected(self):
        findings = lint_source("""
            class Manager:
                def note(self):
                    tr = self.trace
                    if tr is not None:
                        tr.emit("episode", "begin", node=0)
        """, rel="recovery/manager.py")
        assert findings == []


# ---------------------------------------------------------------- sim hygiene

class TestSimHygiene:
    def test_sleep_and_open_flagged_in_sim_zone(self):
        findings = lint_source("""
            import time

            def checkpoint(state, path):
                time.sleep(0.1)
                with open(path, "w") as handle:
                    handle.write(state)
        """, rel="sim/engine.py")
        assert rules_of(findings) == ["sim-blocking", "sim-blocking"]

    def test_blocking_ignored_outside_sim_zones(self):
        findings = lint_source("""
            import subprocess

            def launch(args):
                return subprocess.run(args)
        """, rel="campaign/worker.py")
        assert findings == []

    def test_handler_missing_cost_flagged(self):
        findings = lint_source("""
            from repro.coherence.messages import MessageKind

            class ProtocolEngine:
                def _home_get(self, packet):
                    if packet.stale:
                        return
                    self.reply(packet)

            _HANDLERS = {MessageKind.GET: ProtocolEngine._home_get}
        """, rel="coherence/protocol.py")
        assert rules_of(findings) == ["handler-cost", "handler-cost"]
        messages = sorted(f.message for f in findings)
        assert any("fall off the end" in m for m in messages)
        assert any("returns no cost" in m for m in messages)

    def test_magic_dispatch_handlers_checked(self):
        findings = lint_source("""
            class Magic:
                def _handle_reply(self, packet):
                    self.stats.replies += 1
        """, rel="node/magic.py")
        assert rules_of(findings) == ["handler-cost"]

    def test_handler_returning_cost_everywhere_is_clean(self):
        findings = lint_source("""
            class Magic:
                def _handle_reply(self, packet):
                    if packet.kind == "nak":
                        return self.params.short_handler_time
                    return self.params.handler_time
        """, rel="node/magic.py")
        assert findings == []

    def test_broad_except_flagged_everywhere(self):
        findings = lint_source("""
            def guess(value):
                try:
                    return int(value)
                except Exception:
                    return 0
        """, rel="workloads/parse.py")
        assert rules_of(findings) == ["broad-except"]

    def test_bare_except_flagged(self):
        findings = lint_source("""
            def guess(value):
                try:
                    return int(value)
                except:
                    return 0
        """, rel="workloads/parse.py")
        assert rules_of(findings) == ["broad-except"]

    def test_specific_except_allowed(self):
        findings = lint_source("""
            def guess(value):
                try:
                    return int(value)
                except (ValueError, TypeError):
                    return 0
        """, rel="workloads/parse.py")
        assert findings == []


# ------------------------------------------------------------- suppressions

class TestSuppressions:
    def test_line_pragma_suppresses_single_rule(self):
        findings = lint_source("""
            import time

            def now():
                return time.time()   # repro-lint: disable=wall-clock — ok

            def later():
                return time.time()
        """)
        (finding,) = findings
        assert finding.line == 8

    def test_file_pragma_suppresses_whole_file(self):
        findings = lint_source("""
            # repro-lint: disable-file=wall-clock — harness-side module
            import time

            def now():
                return time.time()

            def later():
                return time.time()
        """)
        assert findings == []

    def test_pragma_only_covers_named_rules(self):
        findings = lint_source("""
            import time
            import random

            def now():
                return time.time() + random.random()   # repro-lint: disable=wall-clock
        """)
        assert rules_of(findings) == ["unseeded-random"]


# ------------------------------------------------------------------ baseline

class TestBaseline:
    def test_round_trip_suppresses_grandfathered(self, tmp_path):
        source = """
            import time

            def now():
                return time.time()
        """
        findings = lint_source(source)
        assert len(findings) == 1
        path = tmp_path / "baseline.json"
        write_baseline(str(path), findings)
        baseline = load_baseline(str(path))
        assert apply_baseline(findings, baseline) == []
        # New findings are NOT covered.
        fresh = lint_source(source + """
            def later():
                return time.monotonic()
        """)
        remaining = apply_baseline(fresh, baseline)
        assert len(remaining) == 1
        assert "time.monotonic" in remaining[0].message

    def test_baseline_entries_consumed_once(self, tmp_path):
        findings = lint_source("""
            import time

            def now():
                return time.time() + time.time()
        """)
        assert len(findings) == 2
        path = tmp_path / "baseline.json"
        write_baseline(str(path), findings[:1])
        remaining = apply_baseline(findings, load_baseline(str(path)))
        assert len(remaining) == 1


# ---------------------------------------------------------------- the gate

class TestRepoIsClean:
    def test_rule_registry_is_complete(self):
        assert set(all_rules()) == {
            "wall-clock", "unseeded-random", "unordered-iter",
            "telemetry-guard", "telemetry-cause",
            "sim-blocking", "handler-cost", "broad-except",
        }

    def test_src_repro_lints_clean_with_empty_baseline(self):
        findings, suppressed = run_lint()
        assert suppressed == 0
        assert findings == [], format_text(findings)

    def test_cli_lint_json_reports_clean(self, capsys):
        from repro.cli import main
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["findings"] == []

    def test_format_json_round_trips_findings(self):
        findings = lint_source("""
            import time

            def now():
                return time.time()
        """)
        payload = json.loads(format_json(findings))
        assert payload["count"] == 1
        assert payload["errors"] == 1
        (entry,) = payload["findings"]
        assert entry["rule"] == "wall-clock"
        assert entry["path"] == "sim/bad.py"


# ------------------------------------------------------------- CLI options

DIRTY_SOURCE = textwrap.dedent("""
    def first():
        try:
            return 1
        except Exception:
            return None

    def second():
        try:
            return 2
        except Exception:
            return None
""")


def _dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY_SOURCE)
    return str(path)


class TestCliLintOptions:
    def test_rule_filter_keeps_only_named_rules(self, tmp_path, capsys):
        from repro.cli import main
        path = _dirty_file(tmp_path)
        assert main(["lint", path, "--format", "json",
                     "--rule", "broad-except"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert {f["rule"] for f in payload["findings"]} == {"broad-except"}

    def test_rule_filter_can_silence_everything(self, tmp_path, capsys):
        from repro.cli import main
        path = _dirty_file(tmp_path)
        assert main(["lint", path, "--format", "json",
                     "--rule", "wall-clock"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0

    def test_unknown_rule_is_an_error(self, tmp_path):
        from repro.cli import main
        path = _dirty_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", path, "--rule", "no-such-rule"])
        assert "unknown rule" in str(excinfo.value)

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        from repro.cli import main
        path = _dirty_file(tmp_path)
        assert main(["lint", path, "--format", "github"]) == 1
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("::error ")]
        assert len(lines) == 2
        assert all("file=" in l and "line=" in l and "[broad-except]" in l
                   for l in lines)


class TestCliBaselineRegeneration:
    """--update-baseline must regenerate from the unfiltered run.

    The original implementation wrote the post-baseline view, so every
    regeneration silently dropped the grandfathered findings that still
    existed -- the baseline shrank while the findings lived on, and the
    next gated run went red.
    """

    def test_update_twice_keeps_grandfathered_findings(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        path = _dirty_file(tmp_path)
        baseline = str(tmp_path / "baseline.json")

        assert main(["lint", path, "--baseline", baseline,
                     "--update-baseline"]) == 0
        first = json.loads(open(baseline).read())
        assert len(first["findings"]) == 2

        # Gated run: everything grandfathered, exit clean.
        assert main(["lint", path, "--baseline", baseline]) == 0
        capsys.readouterr()

        # Regenerating with the baseline in place must NOT shrink it.
        assert main(["lint", path, "--baseline", baseline,
                     "--update-baseline"]) == 0
        second = json.loads(open(baseline).read())
        assert len(second["findings"]) == 2
        assert main(["lint", path, "--baseline", baseline]) == 0

    def test_update_baseline_requires_a_path(self):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--update-baseline"])
        assert "--baseline" in str(excinfo.value)
