"""End-to-end fault-injection experiments on Hive (paper §5.2, Table 5.4).

One run: boot Hive, create the parallel-make build tree, start one compile
per cell, inject a fault mid-run, let hardware and OS recovery happen, wait
for the surviving compiles, then check that every compile *not affected by
the fault* finished correctly — the 91.6% criterion of the paper.
"""

import dataclasses

from repro.analysis.tables import format_table
from repro.common.types import DirState
from repro.faults.models import FaultSpec
from repro.hive.os import HiveConfig, HiveOS
from repro.workloads.pmake import (
    compile_job,
    create_build_tree,
    expected_object_lines,
)


@dataclasses.dataclass
class EndToEndResult:
    """Outcome of one Table 5.4 run."""

    fault: FaultSpec
    recovered: bool
    os_recovered: bool
    compiles_expected: int
    compiles_correct: int
    failed: bool                       # run counts in the "failed" column
    failure_reason: str
    hw_recovery_ns: float
    os_recovery_ns: float

    def table(self):
        """The run as a metric/value table (``repro.cli endtoend``)."""
        return format_table(
            "End-to-end run: %s" % self.fault, ["metric", "value"], [
                ("hardware recovered", self.recovered),
                ("OS recovered", self.os_recovered),
                ("compiles expected to survive", self.compiles_expected),
                ("compiles correct", self.compiles_correct),
                ("run failed", self.failed),
                ("failure reason", self.failure_reason or "-"),
                ("HW recovery [ms]", "%.2f" % (self.hw_recovery_ns / 1e6)),
                ("OS recovery [ms]", "%.2f" % (self.os_recovery_ns / 1e6)),
            ])


def run_end_to_end_experiment(fault, hive_config=None, inject_delay=2_000_000.0,
                              seed=0, run_limit=120_000_000_000):
    """One Table 5.4 run of a single
    :class:`~repro.faults.models.FaultSpec`; returns an EndToEndResult."""
    config = hive_config or HiveConfig(seed=seed)
    hive = HiveOS(config).start()
    sim = hive.sim

    jobs = list(range(config.cells))
    create_build_tree(hive, jobs)
    server = config.file_server_cell

    processes = {}
    for job_id in jobs:
        cell_id = job_id % config.cells
        processes[job_id] = hive.spawn_process(
            cell_id, "cc%d" % job_id,
            compile_job(hive, cell_id, job_id),
            dependencies={server})

    # Let the compiles get going, then inject.
    sim.run(until=sim.now + inject_delay)
    manager = hive.machine.recovery_manager
    reports_before = len(manager.reports)
    hive.machine.injector.inject(fault)

    # Every Table 5.2 fault type eventually triggers recovery (user
    # traffic or the liveness monitor detects it); wait for that episode
    # first — the compiles may well have finished before the fault was
    # even noticed (late injections).
    sim.run_until(
        lambda: len(manager.reports) > reports_before
        and not manager.in_progress,
        limit=run_limit)

    # Then run until the surviving compiles settle (done/failed/...).
    def settled():
        if manager.in_progress or hive.os_recovery_in_progress:
            return False
        return all(p.state != "running" for job, p in processes.items()
                   if p.cell.alive)

    sim.run_until(settled, limit=run_limit)

    # ---- evaluate -----------------------------------------------------------
    recovered = bool(manager.reports)
    os_recovered = bool(hive.os_recovery_reports)
    report = manager.reports[-1] if recovered else None

    # The cells the fault is expected to take down: its failure unit.
    dead_expected = ({hive.cell_of_node(fault.target).cell_id}
                     if fault.destroys_node_state else set())
    survivors_expected = [
        job for job in jobs
        if not ({job % config.cells, server} & dead_expected)
    ]

    correct = 0
    failure_reason = ""
    for job in survivors_expected:
        process = processes[job]
        ok, why = _verify_compile(hive, job, process)
        if ok:
            correct += 1
        elif not failure_reason:
            failure_reason = "compile %d: %s" % (job, why)

    # A cell that died outside the fault's failure unit is a containment
    # failure regardless of compile outcomes (§5.2: the paper's failed runs
    # were exactly such OS-bug cell crashes).
    for when, cell_id, reason in hive.panics:
        if cell_id not in dead_expected and not failure_reason:
            failure_reason = "cell %d crashed: %s" % (cell_id, reason)

    failed = bool(failure_reason) or correct < len(survivors_expected)
    hw_ns = report.total_duration if report else 0.0
    os_ns = 0.0
    if hive.os_recovery_reports:
        _, start, end = hive.os_recovery_reports[-1]
        os_ns = end - start

    return EndToEndResult(
        fault=fault,
        recovered=recovered,
        os_recovered=os_recovered,
        compiles_expected=len(survivors_expected),
        compiles_correct=correct,
        failed=failed,
        failure_reason=failure_reason,
        hw_recovery_ns=hw_ns,
        os_recovery_ns=os_ns,
    )


def _verify_compile(hive, job, process):
    """Check one expected-survivor compile completed with correct output."""
    if process.state != "done":
        return False, "state=%s (%s)" % (process.state,
                                         process.termination_reason)
    machine = hive.machine
    for line, expected in expected_object_lines(hive, job):
        home = machine.address_map.home_of(line)
        entry = machine.nodes[home].directory.peek(line)
        if entry is not None and entry.state == DirState.INCOHERENT:
            return False, "object line 0x%x incoherent" % line
        committed = machine.oracle.committed_value(line)
        if committed != expected:
            return False, ("object line 0x%x has %r, expected %r"
                           % (line, committed, expected))
    return True, ""
