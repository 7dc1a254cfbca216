"""Tests for repro.lint: the AST invariant linter.

Each rule gets a golden "bad module" fixture asserting exact findings,
plus suppression handling and — the gate the CI job relies on — a
check that the real ``src/repro`` tree lints clean.
"""

import json
import textwrap

import pytest

from repro.lint import (
    Module,
    Project,
    all_rules,
    format_json,
    format_text,
    lint_project,
    run_lint,
)


def make_module(source, rel="sim/bad.py"):
    return Module(rel, textwrap.dedent(source))


def lint_source(source, rel="sim/bad.py"):
    return lint_project(Project([make_module(source, rel)]))


def rules_of(findings):
    return [finding.rule for finding in findings]


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

            def pause():
                time.sleep(0)   # repro-lint: disable=sim-blocking — ok

            def later():
                time.sleep(0)
        """)
        (finding,) = findings
        assert finding.line == 8

    def test_pragma_only_covers_named_rules(self):
        findings = lint_source("""
            import time

            def drop(tr):
                tr.emit("pkt", "drop") or time.sleep(0)   # repro-lint: disable=sim-blocking
        """, rel="interconnect/router.py")
        assert rules_of(findings) == ["telemetry-cause"]


# ---------------------------------------------------------------- the gate

class TestRepoIsClean:
    def test_rule_registry_is_complete(self):
        assert all_rules() == {
            "telemetry-cause", "sim-blocking", "handler-cost",
            "broad-except",
        }

    def test_src_repro_lints_clean(self):
        findings = run_lint()
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

            def pause():
                time.sleep(0)
        """)
        payload = json.loads(format_json(findings))
        assert payload["count"] == 1
        (entry,) = payload["findings"]
        assert entry == findings[0].to_dict()
        assert entry["rule"] == "sim-blocking"
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
    def test_no_baseline_options_remain(self):
        from repro.cli import build_parser
        parser = build_parser()
        for argv in (["lint", "--baseline", "findings.json"],
                     ["lint", "--update-baseline"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        from repro.cli import main
        path = _dirty_file(tmp_path)
        assert main(["lint", path, "--format", "github"]) == 1
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("::error ")]
        assert len(lines) == 2
        assert all("file=" in l and "line=" in l and "[broad-except]" in l
                   for l in lines)
