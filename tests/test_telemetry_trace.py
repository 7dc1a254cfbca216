"""Tests for the telemetry event bus (repro.telemetry.trace).

The central contract is the disabled-by-default overhead rule (DESIGN.md
§9): without a telemetry bundle every component's ``trace`` attribute is
None and recording cannot perturb the simulation — a traced run and an
untraced run of the same experiment must be identical event for event.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MachineConfig
from repro.core.machine import FlashMachine
from repro.faults.models import FaultSpec
from repro.telemetry import Telemetry, TraceRecorder
from repro.telemetry.flight import events_from_dump
from repro.telemetry.scalability import run_scalability_point


def small_config(num_nodes=4, seed=0):
    return MachineConfig(num_nodes=num_nodes, mem_per_node=64 << 10,
                         l2_size=8 << 10, seed=seed)


class TestTraceRecorder:
    def test_emit_records_time_and_data(self):
        recorder = TraceRecorder()

        class FakeSim:
            now = 42.0

        recorder.bind(FakeSim())
        recorder.emit("pkt", "drop", node=3, reason="link")
        (event,) = recorder.events
        assert event.time == 42.0
        assert event.key == "pkt.drop"
        assert event.node == 3
        assert event.data == {"reason": "link"}

    def test_unbound_recorder_stamps_zero(self):
        recorder = TraceRecorder()
        recorder.emit("a", "b")
        assert recorder.events[0].time == 0.0

    def test_max_events_cap_counts_drops(self):
        recorder = TraceRecorder(max_events=2)
        for _ in range(5):
            recorder.emit("a", "b")
        assert len(recorder) == 2
        assert recorder.dropped_events == 3

    def test_queries_and_clear(self):
        recorder = TraceRecorder()
        recorder.emit("pkt", "send")
        recorder.emit("pkt", "recv")
        recorder.emit("detect", "timeout")
        assert recorder.count("pkt") == 2
        assert recorder.count("pkt", "recv") == 1
        assert [e.key for e in recorder.events_of("detect")] == [
            "detect.timeout"]
        assert recorder.dump()["events"][0]["category"] == "pkt"
        recorder.clear()
        assert len(recorder) == 0 and recorder.dropped_events == 0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 60), cap=st.integers(1, 40),
       keep=st.sampled_from(["first", "last"]))
def test_property_retention_policy(n, cap, keep):
    """One recorder, two ends: ``first`` holds the head of the stream,
    ``last`` the tail; eids are stream indices and the counters and the
    dump mean the same under both."""
    recorder = TraceRecorder(max_events=cap, keep=keep)
    returned = []
    for index in range(n):
        cause = None if not index else (
            index - 1 if index % 2 else (index - 1, index // 2))
        returned.append(recorder.emit("pkt", "send", node=index,
                                      cause=cause, seq=index))
    held = (range(min(n, cap)) if keep == "first"
            else range(max(0, n - cap), n))
    assert [event.eid for event in recorder.events] == list(held)
    assert [event.node for event in recorder.events] == list(held)
    assert len(recorder) == len(held)
    assert recorder.total_emitted == n
    assert recorder.dropped_events == n - len(recorder)
    # emit hands back the eid of what it stored, None for what a full
    # head cap turned away (an evicted tail event was stored first).
    assert returned == [index if keep == "last" or index < cap else None
                        for index in range(n)]
    dump = json.loads(json.dumps(recorder.dump()))
    assert dump["total_emitted"] == n
    assert dump["evicted"] == recorder.dropped_events
    rebuilt = events_from_dump(dump)
    assert rebuilt == recorder.events     # keys, eids, tuple causes, data


class TestZeroCostWhenDisabled:
    def test_components_default_to_no_trace(self):
        machine = FlashMachine(small_config())
        assert machine.telemetry is None
        assert all(r.trace is None for r in machine.network.routers)
        assert all(i.trace is None for i in machine.network.interfaces)
        assert all(n.magic.trace is None for n in machine.nodes)
        assert machine.recovery_manager.trace is None
        assert machine.injector.trace is None

    def test_attach_recorder_reaches_every_component(self):
        machine = FlashMachine(small_config(), telemetry=Telemetry())
        recorder = machine.telemetry.recorder
        assert all(r.trace is recorder for r in machine.network.routers)
        assert all(i.trace is recorder for i in machine.network.interfaces)
        assert all(n.magic.trace is recorder for n in machine.nodes)
        assert machine.recovery_manager.trace is recorder
        assert machine.injector.trace is recorder

    def test_traced_and_untraced_runs_are_identical(self):
        """Recording must not perturb the simulation: same events executed,
        same virtual time, same recovery outcome."""
        plain = run_scalability_point(4, seed=3)
        traced = run_scalability_point(4, seed=3, telemetry=Telemetry())
        assert plain["recovery"] == traced["recovery"]
        assert plain["sim"]["sim_ns"] == traced["sim"]["sim_ns"]
        assert (plain["sim"]["events_executed"]
                == traced["sim"]["events_executed"])


class TestEventCapture:
    @pytest.fixture(scope="class")
    def traced_run(self):
        telemetry = Telemetry()
        result = run_scalability_point(8, telemetry=telemetry)
        assert result["completed"]
        return telemetry, result

    def test_episode_lifecycle_events(self, traced_run):
        telemetry, _ = traced_run
        recorder = telemetry.recorder
        assert recorder.count("episode", "begin") == 1
        assert recorder.count("episode", "end") == 1
        assert recorder.count("fault", "inject") == 1
        assert recorder.count("recovery", "trigger") >= 1
        assert recorder.count("detect", "timeout") >= 1

    def test_phase_events_balance(self, traced_run):
        telemetry, _ = traced_run
        recorder = telemetry.recorder
        enters = recorder.events_of("phase", "enter")
        exits = recorder.events_of("phase", "exit")
        # 7 surviving agents x 4 phases, no restarts in this scenario
        assert len(enters) == len(exits) == 7 * 4
        assert {e.data["phase"] for e in enters} == {"P1", "P2", "P3", "P4"}

    def test_packet_and_round_events(self, traced_run):
        telemetry, _ = traced_run
        recorder = telemetry.recorder
        assert recorder.count("pkt", "send") > 0
        assert recorder.count("pkt", "recv") > 0
        assert recorder.count("round", "done") > 0
        assert recorder.count("barrier", "done") > 0

    def test_events_are_time_ordered(self, traced_run):
        telemetry, _ = traced_run
        times = [e.time for e in telemetry.events]
        assert times == sorted(times)


class TestInjectorEvents:
    def test_skip_event_on_already_failed_target(self):
        telemetry = Telemetry()
        machine = FlashMachine(small_config(), telemetry=telemetry).start()
        machine.injector.inject(FaultSpec.node_failure(2))
        with pytest.warns(UserWarning):
            machine.injector.inject(FaultSpec.node_failure(2))
        recorder = telemetry.recorder
        assert recorder.count("fault", "inject") == 1
        assert recorder.count("fault", "skip") == 1


class TestStrayMessageTelemetry:
    """ProtocolEngine.handle's stray path is visible in traces and in
    MagicStats (the dynamic counterpart of the dispatch-coverage test in
    test_verify_model)."""

    def _stray_packet(self, machine):
        from repro.coherence.messages import MessageKind, make_packet
        # NAK is a reply kind with no _HANDLERS entry; feeding it straight
        # to the protocol engine models an unhandled kind reaching dispatch.
        return make_packet(machine.params, 0, 1, MessageKind.NAK,
                           {"line": machine.line_homed_at(1)})

    def test_stray_emits_trace_event_and_metrics_counter(self):
        telemetry = Telemetry()
        machine = FlashMachine(small_config(), telemetry=telemetry)
        magic = machine.nodes[1].magic
        cost = magic.protocol.handle(self._stray_packet(machine))
        assert cost == machine.params.short_handler_time
        assert magic.stats.stray_messages == 1
        (event,) = telemetry.recorder.events_of("protocol", "stray")
        assert event.node == 1
        assert event.data["reason"] == "no-handler"
        assert "NAK" in event.data["kind"]
        assert telemetry.recorder.count("protocol", "stray") == 1

    def test_stray_path_is_inert_without_telemetry(self):
        machine = FlashMachine(small_config())
        magic = machine.nodes[1].magic
        assert magic.trace is None
        magic.protocol.handle(self._stray_packet(machine))
        assert magic.stats.stray_messages == 1
