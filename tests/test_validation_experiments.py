"""End-to-end validation-experiment harness tests (paper §5.2 methodology).

Each test is one full Table 5.3-style run at a small configuration: fill,
inject, recover, read all memory, verify against the oracle.
"""

import dataclasses

import pytest

from repro import MachineConfig
from repro.campaign.schedule import FaultSchedule, TimedFault
from repro.core.experiment import (
    ScheduleResult,
    run_recovery_scalability,
    run_schedule_experiment,
    run_validation_experiment,
)
from repro.faults.models import TABLE_5_2_FAULT_TYPES, FaultSpec, FaultType


def config(seed, num_nodes=4):
    return MachineConfig(num_nodes=num_nodes, mem_per_node=1 << 16,
                         l2_size=1 << 13, seed=seed)


@pytest.mark.parametrize("fault", [
    FaultSpec.node_failure(3),
    FaultSpec.router_failure(2),
    FaultSpec.link_failure(0, 1),
    FaultSpec.infinite_loop(1),
    FaultSpec.false_alarm(0),
], ids=lambda f: f.fault_type.value)
def test_validation_passes_for_every_fault_type(fault):
    result = run_validation_experiment(fault, config=config(seed=31))
    assert result.passed, result.problems[:5]
    assert result.lines_checked > 0


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_validation_across_seeds(seed):
    result = run_validation_experiment(
        FaultSpec.node_failure(2), config=config(seed=seed), seed=seed)
    assert result.passed, result.problems[:5]


def test_marked_lines_subset_of_allowed():
    result = run_validation_experiment(
        FaultSpec.node_failure(1), config=config(seed=77))
    assert result.lines_marked_incoherent <= result.lines_allowed_incoherent


def test_false_alarm_marks_nothing():
    result = run_validation_experiment(
        FaultSpec.false_alarm(2), config=config(seed=5))
    assert result.passed
    assert result.lines_marked_incoherent == 0


def test_node_failure_marks_something_when_state_exists():
    # With a 60% exclusive fill, the dead node almost surely owned lines
    # homed elsewhere.
    result = run_validation_experiment(
        FaultSpec.node_failure(3), config=config(seed=13),
        fill_fraction=0.8)
    assert result.passed
    assert result.lines_marked_incoherent > 0


def test_eight_node_machine():
    result = run_validation_experiment(
        FaultSpec.infinite_loop(5), config=config(seed=9, num_nodes=8))
    assert result.passed, result.problems[:5]


def test_destroys_node_state_mapping():
    assert FaultSpec.node_failure(2).destroys_node_state
    assert FaultSpec.router_failure(1).destroys_node_state
    assert FaultSpec.infinite_loop(0).destroys_node_state
    assert not FaultSpec.link_failure(0, 1).destroys_node_state
    assert not FaultSpec.false_alarm(0).destroys_node_state


def test_validation_result_string_form():
    result = run_validation_experiment(
        FaultSpec.false_alarm(1), config=config(seed=3))
    text = str(result)
    assert "PASS" in text and "false_alarm" in text


def test_recovery_report_attached():
    result = run_validation_experiment(
        FaultSpec.node_failure(3), config=config(seed=8))
    (report,) = result.reports
    assert result.episodes == 1
    assert report.total_duration > 0
    assert report.available_nodes == {0, 1, 2}


# One fault of each type, sized for a 4-node machine (mesh links 0-1, 0-2).
ONE_FAULT_PER_TYPE = [
    FaultSpec.node_failure(3),
    FaultSpec.router_failure(2),
    FaultSpec.link_failure(0, 1),
    FaultSpec.infinite_loop(1),
    FaultSpec.false_alarm(0),
    FaultSpec.transient_link_failure(0, 2, dwell=1_500_000.0),
    FaultSpec.intermittent_link(0, 1, drop_rate=0.4),
    FaultSpec.delayed_wedge(2, dwell=1_000_000.0),
]


def test_one_fault_of_each_type_is_covered():
    assert ({fault.fault_type for fault in ONE_FAULT_PER_TYPE}
            == set(FaultType))


@pytest.mark.parametrize("fault", ONE_FAULT_PER_TYPE,
                         ids=lambda f: f.fault_type.value)
def test_single_fault_is_a_one_entry_schedule(fault):
    """``run_validation_experiment(spec)`` is ``run_schedule_experiment``
    of the one-entry schedule: same result, field for field."""
    seed = 57
    single = run_validation_experiment(
        fault, config=config(seed=seed), seed=seed)
    schedule = FaultSchedule((TimedFault(fault),), num_nodes=4,
                             topology="mesh")
    scheduled = run_schedule_experiment(
        schedule, config=config(seed=seed), seed=seed)

    assert isinstance(single, ScheduleResult)
    for field in dataclasses.fields(ScheduleResult):
        if field.name != "reports":     # fresh objects per run; see below
            assert (getattr(single, field.name)
                    == getattr(scheduled, field.name)), field.name
    assert single.schedule == schedule
    assert len(single.reports) == len(scheduled.reports) == single.episodes
    for ours, theirs in zip(single.reports, scheduled.reports):
        assert ours.total_duration == theirs.total_duration
        assert ours.available_nodes == theirs.available_nodes
        assert ours.restarts == theirs.restarts


# Table 5.3 sizing, one run per Table 5.2 fault type.  The literals were
# captured at the commit *before* single faults became one-entry schedules,
# through the old private single-fault body; the recovery times were
# re-captured when P3's tables became up*/down* over every surviving link
# (P4's flush barrier takes shorter paths; each moves by under 1 us).
# (fault, seed) -> passed,
# lines checked / marked incoherent / allowed incoherent, survivors,
# recovery time in ms.
TABLE_5_3_PINS = [
    (FaultSpec.node_failure(5), 40,
     (True, 3296, 18, 18, [0, 1, 2, 3, 4, 6, 7], 19.2678)),
    (FaultSpec.router_failure(2), 41,
     (True, 3296, 15, 15, [0, 1, 3, 4, 5, 6, 7], 13.4214)),
    (FaultSpec.link_failure(6, 7), 42,
     (True, 3296, 0, 0, [0, 1, 2, 3, 4, 5, 6, 7], 11.9274)),
    (FaultSpec.infinite_loop(3), 43,
     (True, 3296, 15, 15, [0, 1, 2, 4, 5, 6, 7], 19.3267)),
    (FaultSpec.false_alarm(4), 44,
     (True, 3296, 0, 0, [0, 1, 2, 3, 4, 5, 6, 7], 10.2837)),
]


def test_table_5_3_pins_cover_table_5_2():
    assert ([fault.fault_type for fault, _, _ in TABLE_5_3_PINS]
            == list(TABLE_5_2_FAULT_TYPES))


@pytest.mark.parametrize(
    "fault, seed, pinned", TABLE_5_3_PINS,
    ids=[fault.fault_type.value for fault, _, _ in TABLE_5_3_PINS])
def test_table_5_3_outcome_pinned(fault, seed, pinned):
    result = run_validation_experiment(
        fault, config=config(seed=seed, num_nodes=8), seed=seed)
    (report,) = result.reports
    assert (result.passed, result.lines_checked,
            result.lines_marked_incoherent, result.lines_allowed_incoherent,
            sorted(report.available_nodes),
            round(report.total_duration / 1e6, 4)) == pinned


def test_scalability_probe_crosses_a_failed_link():
    """The timing harness's own prober used to read from node 0 into the
    link's first endpoint, never crossing link 6-7: nothing detected the
    fault and the event heap drained."""
    report = run_recovery_scalability(
        8, mem_per_node=64 << 10, l2_size=8 << 10,
        fault=FaultSpec.link_failure(6, 7))
    assert report.complete_time is not None
    assert "P4" in report.phase_ends
    assert sorted(report.available_nodes) == list(range(8))
