"""Fault forensics: causal DAGs, blast radii and containment audits.

The directed pair at the heart of this file mirrors the paper's §3.3
argument observationally:

* a contained fault's causal descendants stay inside its failure unit
  (except repair traffic and packets destroyed at the boundary), so the
  audit verdict is ``contained`` with a nonempty blast radius;
* with the firewall disabled, a rogue node's speculative write-grant
  escapes the cell, the audit flags the very causal path whose corruption
  the oracle's committed-value bookkeeping also exposes.
"""

from repro import FaultSpec, FlashMachine, MachineConfig
from repro.core.experiment import run_validation_experiment
from repro.interconnect.packet import merge_causes
from repro.node.processor import FlushLine, SpeculativeStore, Store
from repro.telemetry import Telemetry, analyze, build_dag, forensic_summary
from repro.telemetry.forensics import format_forensics
from repro.telemetry.scalability import run_scalability_point
from repro.telemetry.trace import TraceEvent, TraceRecorder


def small_config(**overrides):
    defaults = dict(num_nodes=4, mem_per_node=1 << 16, l2_size=1 << 13,
                    seed=19, failure_units=((0, 1), (2, 3)))
    defaults.update(overrides)
    return MachineConfig(**defaults)


def eight_small_nodes():
    """The default eight nodes with the CLI's memory sizing: the same
    node-7 failure and the same verdicts in half a second, not twenty."""
    return MachineConfig(num_nodes=8, mem_per_node=1 << 16, l2_size=1 << 13)


def _event(eid, cause=None, category="pkt", name="send", node=0, **data):
    return TraceEvent(float(eid), category, name, node, data, eid, cause)


class TestCausalPlumbing:
    def test_emit_returns_eid_and_threads_cause(self):
        recorder = TraceRecorder()
        first = recorder.emit("fault", "inject", node=1)
        second = recorder.emit("pkt", "send", node=1, cause=first)
        assert first == 0 and second == 1
        assert recorder.events[1].cause == 0
        assert recorder.events[0].cause is None

    def test_emit_cause_not_leaked_into_data(self):
        recorder = TraceRecorder()
        recorder.emit("pkt", "drop", node=2, cause=7, reason="link")
        assert recorder.events[0].data == {"reason": "link"}

    def test_to_dict_carries_eid_and_cause(self):
        recorder = TraceRecorder()
        recorder.emit("a", "b", cause=(3, 4))
        payload = recorder.events[0].to_dict()
        assert payload["eid"] == 0 and payload["cause"] == [3, 4]

    def test_merge_causes(self):
        assert merge_causes(None, None) is None
        assert merge_causes(5, None) == 5
        assert merge_causes(None, 5) == 5
        assert merge_causes(5, 5) == 5
        assert merge_causes(5, 6) == (5, 6)
        assert merge_causes((5, 6), 7) == (5, 6, 7)
        assert merge_causes((5, 6), (6, 8)) == (5, 6, 8)

    def test_build_dag_children_and_dangling(self):
        events = [_event(0), _event(1, cause=0), _event(2, cause=(0, 1)),
                  _event(3, cause=99)]
        children, dangling = build_dag(events)
        assert children[0] == [1, 2]
        assert children[1] == [2]
        assert dangling == 1


class TestContainedFault:
    def test_node_failure_blast_radius_confined_to_cell(self):
        telemetry = Telemetry()
        result = run_validation_experiment(
            FaultSpec.node_failure(7), config=eight_small_nodes(), seed=0,
            telemetry=telemetry)
        assert result.passed
        report = analyze(telemetry.recorder)
        assert report.verdict == "contained"
        assert not report.truncated
        assert len(report.faults) == 1
        fault = report.faults[0]
        assert fault.root == "F0"
        assert fault.cell == [7]
        # The fault reached something (nonempty radius) but nothing outside
        # the failed cell except repair and boundary-destroyed packets.
        assert fault.blast_events > 0
        assert fault.blast_nodes and set(fault.blast_nodes) <= {7}
        assert fault.violations == []
        assert fault.repair_events > 0
        text = format_forensics(report)
        assert "contained" in text and "F0" in text

    def test_injector_mints_distinct_roots(self):
        telemetry = Telemetry()
        machine = FlashMachine(small_config(), telemetry=telemetry).start()
        machine.injector.inject(FaultSpec.false_alarm(0))
        machine.run_until_recovered()
        machine.injector.inject(FaultSpec.false_alarm(3))
        machine.run_until_recovered()
        roots = [event.data["root"] for event in telemetry.recorder.events
                 if event.key == "fault.inject"]
        assert roots == ["F0", "F1"]

    def test_false_alarm_blast_is_pure_repair(self):
        telemetry = Telemetry()
        machine = FlashMachine(small_config(), telemetry=telemetry).start()
        machine.injector.inject(FaultSpec.false_alarm(2))
        machine.run_until_recovered()
        report = analyze(telemetry.recorder)
        fault = report.faults[0]
        # Nothing fails in a false alarm: every descendant is recovery
        # machinery, so the audit sees repair, not contamination.
        assert fault.verdict == "contained"
        assert fault.violations == [] and fault.crossings == []
        assert fault.repair_events > 0


class _EscapeRun:
    """The §3.3 speculative-write hazard, instrumented end to end."""

    def __init__(self, firewall_enabled):
        self.telemetry = Telemetry()
        self.machine = FlashMachine(
            small_config(firewall_enabled=firewall_enabled, seed=23),
            telemetry=self.telemetry).start()
        machine = self.machine
        self.line = machine.line_homed_at(0, 12)
        page = self.line - (self.line % machine.params.page_size)
        machine.nodes[0].magic.set_firewall(page, {0, 1})

        def victim():
            yield Store(self.line, value="good")
            yield FlushLine(self.line)

        machine.run_programs([(0, victim())])
        machine.quiesce()
        assert machine.oracle.committed_value(self.line) == "good"

        # Node 3's firmware is rogue from injection (delayed wedge with a
        # dwell beyond the test horizon): everything it sends descends
        # from fault F0, whose cell is {2, 3}.
        machine.injector.inject(
            FaultSpec.delayed_wedge(3, dwell=1e15))

        def speculator():
            yield SpeculativeStore(self.line)

        machine.run_programs([(3, speculator())])
        machine.quiesce()

    def corrupt_and_flush(self):
        """Model the hardware corruption: the rogue node scribbles on the
        exclusively held line (no oracle-visible Store commit) and writes
        it back, so home memory diverges from the committed value."""
        machine = self.machine
        machine.nodes[3].cache.write(self.line, "garbage")

        def flusher():
            yield FlushLine(self.line)

        machine.run_programs([(3, flusher())])
        machine.quiesce()

    def report(self):
        return analyze(self.telemetry.recorder)


class TestEscapeAudit:
    def test_firewall_disabled_escape_is_flagged(self):
        run = _EscapeRun(firewall_enabled=False)
        machine = run.machine
        from repro.common.types import CacheState
        assert machine.nodes[3].cache.state_of(run.line) == \
            CacheState.EXCLUSIVE
        run.corrupt_and_flush()

        # The observable corruption the oracle's bookkeeping exposes ...
        assert machine.nodes[0].memory.read_line(run.line) == "garbage"
        assert machine.oracle.committed_value(run.line) == "good"

        # ... and the causal path the audit flags for the same escape.
        report = run.report()
        assert report.verdict == "escape"
        fault = report.faults[0]
        assert fault.cell == [2, 3]
        kinds = {violation["kind"] for violation in fault.violations}
        assert "DATA_EXCL" in kinds     # write grant issued outside cell
        assert "PUT" in kinds           # dirty data absorbed outside cell
        assert all(violation["node"] not in (2, 3)
                   for violation in fault.violations)
        assert any(violation["line"] == run.line
                   for violation in fault.violations)
        text = format_forensics(report)
        assert "VIOLATION" in text and "escape" in text

    def test_firewall_enabled_same_scenario_is_contained(self):
        run = _EscapeRun(firewall_enabled=True)
        machine = run.machine
        from repro.common.types import CacheState
        # The §3.3 defense refused the grant: no exclusive copy escapes
        # into the rogue cell, and the audit agrees.
        assert machine.nodes[3].cache.state_of(run.line) == \
            CacheState.INVALID
        report = run.report()
        assert report.verdict == "contained"
        assert report.faults[0].violations == []


class TestTruncationDegradesGracefully:
    def test_dropped_events_accounting(self):
        recorder = TraceRecorder(max_events=2)
        eids = [recorder.emit("pkt", "send", node=0) for _ in range(5)]
        assert eids == [0, 1, None, None, None]
        assert len(recorder.events) == 2
        assert recorder.dropped_events == 3

    def test_capped_trace_reports_truncation(self):
        full = Telemetry()
        run_validation_experiment(FaultSpec.node_failure(7),
                                  config=eight_small_nodes(), seed=0,
                                  telemetry=full)
        total = len(full.recorder.events)
        inject = [event.eid for event in full.recorder.events
                  if event.key == "fault.inject"]
        cap = inject[0] + 50
        assert cap < total

        capped = Telemetry(max_events=cap)
        run_validation_experiment(FaultSpec.node_failure(7),
                                  config=eight_small_nodes(), seed=0,
                                  telemetry=capped)
        recorder = capped.recorder
        assert recorder.dropped_events == total - cap
        report = analyze(recorder)
        assert report.truncated
        assert report.dropped_events == total - cap
        # The DAG still builds and the fault is still found; the verdict
        # just carries the caveat.
        assert len(report.faults) == 1
        payload = report.to_dict()
        assert payload["truncated"] is True
        assert payload["dropped_events"] == total - cap

    def test_summary_carries_truncation_flag(self):
        capped = Telemetry(max_events=1500)
        run_validation_experiment(FaultSpec.node_failure(7),
                                  config=eight_small_nodes(), seed=0,
                                  telemetry=capped)
        summary = forensic_summary(capped.recorder)
        assert summary["truncated"] is True
        assert summary["verdict"] in ("contained", "escape", "no-fault")


class TestForensicsDeterminism:
    def test_forensic_analysis_leaves_runs_bit_identical(self):
        """Tracing + forensics must not perturb the simulation: the §9
        zero-cost contract extends to the causal ids (pure data on packets,
        never branched on)."""
        def fingerprint(telemetry):
            result = run_scalability_point(4, seed=5, telemetry=telemetry)
            if telemetry is not None:
                analyze(telemetry.recorder)
            sim = result["sim"]
            return (result["recovery"], sim["sim_ns"],
                    sim["events_executed"])

        plain = fingerprint(None)
        traced = fingerprint(Telemetry())
        assert traced == plain
        assert fingerprint(None) == plain
