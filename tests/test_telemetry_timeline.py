"""Tests for recovery-timeline reconstruction (repro.telemetry.timeline).

The timeline must agree with the RecoveryReport the manager builds from
the agents' own phase marks — same trigger, same per-phase latencies, same
completion time — while adding the per-node structure only a trace has.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.experiment import inject_and_probe
from repro.core.machine import FlashMachine
from repro.faults.models import FaultSpec
from repro.telemetry import Telemetry, build_timelines
from repro.telemetry.timeline import (
    PHASE_ORDER,
    EpisodeTimeline,
    format_timeline,
)
from repro.telemetry.trace import TraceEvent


@pytest.fixture(scope="module")
def traced_recovery():
    """A traced 8-node node-failure recovery: (telemetry, report)."""
    telemetry = Telemetry()
    config = MachineConfig(num_nodes=8, mem_per_node=64 << 10,
                           l2_size=8 << 10, seed=0)
    machine = FlashMachine(config, telemetry=telemetry).start()
    machine.quiesce()
    inject_and_probe(machine, FaultSpec.node_failure(7))
    report = machine.run_until_recovered()
    return telemetry, report


class TestAgainstRecoveryReport:
    def test_one_timeline_per_episode(self, traced_recovery):
        telemetry, _ = traced_recovery
        timelines = build_timelines(telemetry.events)
        assert len(timelines) == 1

    def test_trigger_matches_report(self, traced_recovery):
        telemetry, report = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        assert timeline.trigger_time == report.trigger_time
        assert timeline.trigger_node == report.trigger_node
        assert timeline.trigger_reason == report.trigger_reason

    def test_phase_latencies_match_report(self, traced_recovery):
        telemetry, report = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        for phase in PHASE_ORDER:
            assert (timeline.phase_latency(phase)
                    == report.phase_duration_from_trigger(phase)), phase

    def test_total_duration_matches_report(self, traced_recovery):
        telemetry, report = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        assert timeline.total_duration == report.total_duration
        assert timeline.restarts == report.restarts == 0

    def test_participants_are_the_survivors(self, traced_recovery):
        telemetry, report = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        assert timeline.participating_nodes() == sorted(
            report.available_nodes)

    def test_critical_path_covers_all_phases(self, traced_recovery):
        telemetry, _ = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        path = timeline.critical_path()
        assert set(path) == set(PHASE_ORDER)
        # Latencies from the trigger are cumulative across phases.
        latencies = [path[phase][1] for phase in PHASE_ORDER]
        assert latencies == sorted(latencies)

    def test_per_node_spans_nest_inside_windows(self, traced_recovery):
        telemetry, _ = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        for phase in PHASE_ORDER:
            lo, hi = timeline.phase_window(phase)
            for node in timeline.participating_nodes():
                start, end = timeline.per_node(node)[phase]
                assert lo <= start <= end <= hi

    def test_breakdown_is_json_friendly(self, traced_recovery):
        import json
        telemetry, _ = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        breakdown = json.loads(json.dumps(timeline.breakdown()))
        assert breakdown["phases"]["P1"]["critical_node"] is not None

    def test_format_timeline_mentions_phases(self, traced_recovery):
        telemetry, _ = traced_recovery
        (timeline,) = build_timelines(telemetry.events)
        text = format_timeline(timeline)
        for phase in PHASE_ORDER:
            assert phase in text


def _ev(time, category, name, node=None, **data):
    return TraceEvent(time, category, name, node, data)


class TestRestartHandling:
    def synthetic_restart_events(self):
        return [
            _ev(100.0, "episode", "begin", node=0,
                trigger_node=0, reason="test", epoch=1),
            _ev(110.0, "phase", "enter", node=0, phase="P1", epoch=1),
            _ev(120.0, "phase", "exit", node=0, phase="P1", epoch=1),
            _ev(130.0, "phase", "enter", node=0, phase="P2", epoch=1),
            # New fault mid-P2: restart with a higher epoch; the open P2
            # span never closes.
            _ev(140.0, "episode", "restart", node=0, epoch=2),
            _ev(150.0, "phase", "enter", node=0, phase="P1", epoch=2),
            _ev(160.0, "phase", "exit", node=0, phase="P1", epoch=2),
            _ev(200.0, "episode", "end", epoch=2, available=1),
        ]

    def test_restart_counted_and_final_epoch_selected(self):
        (timeline,) = build_timelines(self.synthetic_restart_events())
        assert timeline.restarts == 1
        assert timeline.final_epoch == 2
        # Only the final epoch's spans define the breakdown.
        assert timeline.phase_latency("P1") == 160.0 - 100.0
        assert timeline.phase_latency("P2") is None

    def test_cut_short_span_keeps_open_end(self):
        (timeline,) = build_timelines(self.synthetic_restart_events())
        p2_spans = [s for s in timeline.spans if s.phase == "P2"]
        assert len(p2_spans) == 1
        assert p2_spans[0].end is None and p2_spans[0].duration is None

    def test_events_before_any_episode_are_ignored(self):
        events = [_ev(5.0, "phase", "enter", node=0, phase="P1", epoch=1),
                  _ev(6.0, "episode", "restart", node=0, epoch=2)]
        assert build_timelines(events) == []

    def test_unfinished_episode_not_emitted(self):
        events = [_ev(1.0, "episode", "begin", node=0,
                      trigger_node=0, reason="r", epoch=1)]
        assert build_timelines(events) == []

    def test_empty_timeline_queries_return_none(self):
        timeline = EpisodeTimeline(0, 10.0, 0, "r")
        assert timeline.total_duration is None
        assert timeline.phase_latency("P1") is None
        assert timeline.phase_window("P1") is None
        assert timeline.critical_node("P1") is None
        assert timeline.critical_path() == {}
