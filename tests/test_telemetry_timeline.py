"""Recovery phase spans: the RecoveryReport's account of when each node's
agent entered and left each phase, in every epoch.

Every run records the spans, traced or not.  The per-phase aggregates
(``phase_ends``, ``phase_durations``) and the critical path are those of
the final epoch, the pass that completed.  A trace carries the same
story as events; these tests check that the two agree and that a real
§4.1 restart (a false alarm on node 0 of the 8-node mesh, then link 5-7
dies as the first agent enters P4) leaves the spans the restart rule
implies.
"""

from collections import Counter

import pytest

from repro.campaign.schedule import FaultSchedule, TimedFault
from repro.core.config import MachineConfig
from repro.core.experiment import inject_and_probe, run_schedule_experiment
from repro.core.machine import FlashMachine
from repro.faults.models import FaultSpec
from repro.recovery.manager import RECOVERY_PHASES, RecoveryReport
from repro.telemetry import Telemetry


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


@pytest.fixture(scope="module")
def restarted():
    """The untraced mesh-8 P4 link-failure reproducer's one report."""
    schedule = FaultSchedule(
        entries=(
            TimedFault(FaultSpec.false_alarm(0), time=0.0),
            TimedFault(FaultSpec.link_failure(5, 7), phase="P4"),
        ),
        num_nodes=8, topology="mesh")
    result = run_schedule_experiment(
        schedule, config=MachineConfig(
            num_nodes=8, topology="mesh", mem_per_node=1 << 16,
            l2_size=1 << 13, seed=0), seed=0)
    assert result.passed, result.problems
    (report,) = result.reports
    return report


class TestAgainstRecoveryReport:
    """The trace's episode and phase events agree with the report."""

    def test_one_timeline_per_episode(self, traced_recovery):
        telemetry, _ = traced_recovery
        assert [event.key for event in telemetry.events
                if event.category == "episode"] == ["episode.begin",
                                                    "episode.end"]

    def test_trigger_matches_report(self, traced_recovery):
        telemetry, report = traced_recovery
        (begin,) = [event for event in telemetry.events
                    if event.key == "episode.begin"]
        assert begin.time == report.trigger_time
        assert begin.data["trigger_node"] == report.trigger_node
        assert begin.data["reason"] == report.trigger_reason

    def test_total_duration_matches_report(self, traced_recovery):
        telemetry, report = traced_recovery
        (end,) = [event for event in telemetry.events
                  if event.key == "episode.end"]
        assert end.time == report.complete_time
        assert end.data["restarts"] == report.restarts == 0

    def test_phase_exits_hang_off_their_span_enter(self, traced_recovery):
        """Each span holds its ``phase.enter`` eid, and each
        ``phase.exit`` names its span's enter as its cause."""
        telemetry, report = traced_recovery
        enters = {span.enter_eid: span for span in report.spans}
        exits = [event for event in telemetry.events
                 if event.key == "phase.exit"]
        assert len(exits) == len(report.spans) == 7 * len(RECOVERY_PHASES)
        for event in exits:
            span = enters[event.cause]
            assert (span.node, span.phase, span.end) == (
                event.node, event.data["phase"], event.time)

    def test_participants_are_the_survivors(self, traced_recovery):
        _, report = traced_recovery
        nodes = {span.node for phase in RECOVERY_PHASES
                 for span in report.final_spans(phase)}
        assert nodes == report.available_nodes

    def test_critical_path_covers_all_phases(self, traced_recovery):
        _, report = traced_recovery
        path = report.critical_path()
        assert list(path) == list(RECOVERY_PHASES)
        # Latencies from the trigger are cumulative across phases.
        latencies = [latency for _, latency in path.values()]
        assert latencies == sorted(latencies)

    def test_per_node_spans_nest_inside_windows(self, traced_recovery):
        _, report = traced_recovery
        for phase in RECOVERY_PHASES:
            for span in report.final_spans(phase):
                assert (report.trigger_time <= span.start <= span.end
                        <= report.phase_ends[phase]
                        <= report.complete_time)


class TestRestartHandling:
    def test_restart_counted_and_final_epoch_selected(self, restarted):
        assert restarted.restarts == 1
        assert restarted.final_epoch == 2
        assert {span.epoch for span in restarted.spans} == {1, 2}
        # Only the final epoch's spans define the aggregates.
        for phase in RECOVERY_PHASES:
            final = restarted.final_spans(phase)
            assert restarted.phase_ends[phase] == max(
                span.end for span in final)
            assert restarted.phase_durations[phase] == max(
                span.duration for span in final)

    def test_cut_short_span_keeps_open_end(self, restarted):
        cut = [span for span in restarted.spans if span.end is None]
        assert all(span.epoch == 1 and span.duration is None
                   for span in cut)
        assert Counter(span.phase for span in cut) == {"P4": 7, "P3": 1}

    def test_final_epoch_runs_every_phase_once_per_survivor(self,
                                                            restarted):
        final = [span for span in restarted.spans if span.epoch == 2]
        assert len(final) == 32
        assert all(span.end is not None for span in final)
        assert Counter((span.node, span.phase) for span in final) == {
            (node, phase): 1 for node in restarted.available_nodes
            for phase in RECOVERY_PHASES}

    def test_critical_path_after_restart(self, restarted):
        path = restarted.critical_path()
        assert {phase: node for phase, (node, _) in path.items()} == {
            "P1": 5, "P2": 6, "P3": 7, "P4": 7}
        # The last P4 exit completes the episode.
        assert path["P4"][1] == restarted.total_duration

    def test_each_node_runs_its_phases_in_order(self, restarted):
        for node in restarted.available_nodes:
            spans = [span for span in restarted.spans
                     if span.epoch == 2 and span.node == node]
            assert [span.phase for span in spans] == list(RECOVERY_PHASES)
            for before, after in zip(spans, spans[1:]):
                assert before.end <= after.start

    def test_events_before_any_episode_are_ignored(self):
        """A phase entry outside an episode opens no span."""
        machine = FlashMachine(MachineConfig(
            num_nodes=4, mem_per_node=1 << 16, l2_size=1 << 13,
            seed=0)).start()
        manager = machine.recovery_manager
        manager.note_phase_entry("P1", 2)
        manager.note_phase_exit("P1", 2, manager.epoch)
        assert manager.report is None and manager.reports == []

    def test_unfinished_episode_not_emitted(self):
        """An episode still in progress has open spans but no aggregates,
        and is not among the manager's reports."""
        machine = FlashMachine(MachineConfig(
            num_nodes=4, mem_per_node=1 << 16, l2_size=1 << 13,
            seed=0)).start()
        manager = machine.recovery_manager
        manager.trigger(0, "test")
        machine.sim.run(until=machine.sim.now + 100_000.0)
        report = manager.report
        assert manager.in_progress and manager.reports == []
        assert report.spans
        assert all(span.end is None for span in report.spans)
        assert report.phase_ends == {} and report.critical_path() == {}

    def test_empty_timeline_queries_return_none(self):
        report = RecoveryReport(10.0, 0, "r")
        assert report.total_duration is None
        assert report.phase_duration_from_trigger("P1") is None
        assert report.final_spans("P1") == []
        assert report.critical_node("P1") is None
        assert report.critical_path() == {}
