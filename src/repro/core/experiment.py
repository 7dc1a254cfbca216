"""Fault-injection experiment harnesses (paper §5).

Two experiment families (Table 5.4's Hive harness is
:mod:`repro.hive.endtoend`):

* :func:`run_schedule_experiment` — the §5.2 methodology behind Table 5.3
  and the campaign engine: fill caches with a random sharing pattern,
  inject a :class:`~repro.campaign.schedule.FaultSchedule`, recover, then
  read all of memory and verify every line is either correct or properly
  marked, with no over-marking.  It is the only implementation of that
  run; :func:`run_validation_experiment` wraps a single
  :class:`~repro.faults.models.FaultSpec` in a one-entry schedule and
  calls it.
* :func:`run_recovery_scalability` — phase-resolved recovery timing behind
  Figures 5.5-5.7 (no oracle, no memory check: only the report).  It and
  :func:`repro.telemetry.scalability.run_scalability_point` are the same
  run up to the injected fault — :func:`start_recovery_run` — built on the
  §5.2 run's cache fill and detection prober.
"""

import dataclasses
import time

from repro.common.types import BusErrorKind
from repro.core.config import MachineConfig
from repro.core.machine import FlashMachine
from repro.faults.models import FaultSpec, FaultType
from repro.sim.process import all_finished
from repro.workloads.standalone import (
    cache_fill_program,
    memory_check_program,
    partition_lines,
)


def fill_caches(machine, fill_fraction, seed, run_limit):
    """§5.2 step one: every node fills ``l2_lines * fill_fraction`` lines
    of its cache with a random shared/exclusive pattern, then the machine
    drains.  The one cache fill behind every experiment in this module
    and the scalability bench."""
    fill_lines = max(1, int(machine.config.l2_lines * fill_fraction))
    machine.run_programs(
        [(node_id, cache_fill_program(machine, node_id, fill_lines, seed))
         for node_id in range(machine.config.num_nodes)],
        limit=run_limit)
    machine.quiesce()


def run_validation_experiment(fault, config=None, fill_fraction=0.6,
                              seed=0, run_limit=30_000_000_000,
                              telemetry=None):
    """One complete §5.2 validation run of a single fault (Table 5.3).

    A single fault is a one-entry schedule: ``fault`` is wrapped in a
    :class:`~repro.campaign.schedule.FaultSchedule` (one passes through
    as it is) and :func:`run_schedule_experiment` does the run; returns
    its :class:`ScheduleResult`.
    """
    from repro.campaign.schedule import FaultSchedule, TimedFault
    if not isinstance(fault, FaultSchedule):
        config = config or MachineConfig(seed=seed)
        fault = FaultSchedule((TimedFault(fault),),
                              num_nodes=config.num_nodes,
                              topology=config.topology)
    return run_schedule_experiment(
        fault, config=config, fill_fraction=fill_fraction, seed=seed,
        run_limit=run_limit, telemetry=telemetry)


def _judge_observation(machine, oracle, available, line, kind, detail):
    """Check one post-recovery read against the oracle's allowed outcomes."""
    home = machine.address_map.home_of(line)
    home_unavailable = home not in available

    if kind == "bus_error":
        if detail == BusErrorKind.INACCESSIBLE_NODE:
            if home_unavailable:
                return []
            return ["line 0x%x: spurious inaccessible-node error" % line]
        if detail == BusErrorKind.INCOHERENT_LINE:
            if line in (oracle.may_be_incoherent or ()):
                return []
            return ["line 0x%x: marked incoherent but was stable" % line]
        return ["line 0x%x: unexpected bus error %s" % (line, detail)]

    # The read returned data.
    if home_unavailable:
        return ["line 0x%x: read data from an unavailable home" % line]
    expected = oracle.committed_value(line)
    if detail != expected:
        return ["line 0x%x: stale/wrong data %r (expected %r)"
                % (line, detail, expected)]
    return []


# ----------------------------------------------------------------- schedules

@dataclasses.dataclass
class ScheduleResult:
    """Outcome of one §5.2 validation run: a campaign's multi-fault
    schedule or a single fault's one-entry schedule alike."""

    schedule: object
    passed: bool
    problems: list
    lines_checked: int
    lines_marked_incoherent: int
    lines_allowed_incoherent: int
    reports: list                 # RecoveryReports of every episode
    restarts: int                 # §4.1 restarts summed over episodes
    episodes: int
    skipped_injections: int       # faults that hit already-failed targets
    #: compact machine-readable metrics (telemetry.summarize_run) —
    #: populated only when the run asked for it (collect_metrics=True)
    metrics: dict = None

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return ("[%s] %s checked=%d marked=%d allowed=%d episodes=%d "
                "restarts=%d problems=%d"
                % (verdict, self.schedule, self.lines_checked,
                   self.lines_marked_incoherent,
                   self.lines_allowed_incoherent, self.episodes,
                   self.restarts, len(self.problems)))

    def describe(self, episode=None):
        """The verdict line, each problem, then one block per recovery
        episode (only episode ``episode`` when given)."""
        lines = [str(self)]
        lines.extend("  ! %s" % problem for problem in self.problems)
        if not self.reports:
            # A transient fault can heal before any detector fires.
            lines.append("recovery: never triggered (fault healed "
                         "undetected)")
        lines.extend(report.describe(index)
                     for index, report in enumerate(self.reports)
                     if episode in (None, index))
        return "\n".join(lines)


def run_schedule_experiment(schedule, config=None, fill_fraction=0.6,
                            seed=0, run_limit=60_000_000_000,
                            telemetry=None, collect_metrics=False,
                            machine=None):
    """One §5.2 validation run of a whole fault schedule.

    Fill the caches, inject, recover, read all of memory, judge every
    line — for any number of overlapping faults: the oracle snapshots at
    *every* injection with the cumulative ground-truth failed set (the
    union of allowed-incoherent sets keeps growing), recovery episodes —
    including §4.1 restarts — are allowed to cascade, and the final
    full-memory check judges every line against the accumulated oracle
    state.

    ``machine`` may be a not-yet-started :class:`FlashMachine` built for
    this run (a pooled worker builds one with a recorder attached); the
    caller keeps the reference, which is how the worker extracts coverage
    afterwards.  The result depends on ``(schedule, seed)`` and the
    machine's config alone: every id the run hands out comes from the
    machine, never from the process.
    """
    if machine is None:
        config = config or MachineConfig(
            num_nodes=schedule.num_nodes, topology=schedule.topology,
            seed=seed)
        machine = FlashMachine(config, telemetry=telemetry)
    machine.start()
    manager = machine.recovery_manager
    oracle = machine.oracle

    # Phase 1: fill caches with a random shared/exclusive pattern.
    fill_caches(machine, fill_fraction, seed, run_limit)

    # Phase 2: arm the whole schedule.  Ground truth is snapshotted at the
    # instant each fault actually fires (and again at each episode's P4
    # entry), always against the union of nodes lost so far.
    def on_inject(spec):
        failed = oracle.note_failed_nodes(
            {spec.target} if spec.destroys_node_state else set())
        oracle.snapshot_at_injection(machine, failed)

    machine.injector.pre_inject_hook = on_inject
    manager.phase4_hook = lambda: oracle.snapshot_at_injection(
        machine, oracle.known_failed_nodes)

    start = machine.sim.now
    machine.injector.inject_schedule(schedule, base_time=start)

    # Phase 3: detection.  Every *timed* detectable fault gets a prober
    # (phase-triggered faults strike mid-recovery, which detects them
    # itself via the §4.1 restart rule).
    prober_procs = []
    horizon = 0.0
    for entry in schedule.entries:
        if entry.phase is not None:
            continue
        spec = entry.spec
        delay = entry.time + 10.0 + _manifestation_delay(spec)
        horizon = max(horizon, delay, entry.time + (spec.dwell or 0.0))
        if spec.fault_type == FaultType.FALSE_ALARM:
            continue
        machine.sim.schedule_at(
            start + delay, _start_schedule_prober, machine, spec,
            prober_procs)

    # Let every timed injection (and delayed manifestation) fire, then
    # settle all recovery activity.  Episodes may cascade — e.g. a healed
    # link re-detected, or a delayed wedge striking after a first recovery
    # completed — so loop until the machine is quiet.
    machine.run(until=start + horizon + 10.0)
    for _ in range(64):
        if manager.in_progress:
            machine.run_until_recovered(limit=run_limit)
        machine.quiesce(2_000_000.0)
        if not manager.in_progress:
            break
    else:
        raise RuntimeError("recovery episodes never settled: %s" % schedule)
    machine.run_until(all_finished(prober_procs), limit=run_limit)

    # Phase 4: the survivors read all of memory and check every line.
    reports = list(manager.reports)
    available = (set(reports[-1].available_nodes) if reports
                 else set(machine.alive_nodes()))
    checkers = sorted(available)
    assignment = partition_lines(machine, checkers) if checkers else {}
    observations = {node_id: [] for node_id in checkers}
    procs = {
        node_id: machine.nodes[node_id].processor.run_program(
            memory_check_program(assignment[node_id],
                                 observations[node_id]))
        for node_id in checkers
    }
    machine.run_until(all_finished(procs.values()), limit=run_limit)
    if manager.reports:
        # The check itself may have tripped further episodes (e.g. reads
        # into a region a late fault took down).
        reports = list(manager.reports)
        available = set(reports[-1].available_nodes)

    problems = []
    lines_checked = 0
    for node_id in checkers:
        if node_id not in available:
            continue
        for line, kind, detail in observations[node_id]:
            lines_checked += 1
            problems.extend(
                _judge_observation(machine, oracle, available,
                                   line, kind, detail))

    overmarked = oracle.overmarked_lines()
    if overmarked:
        problems.append(
            "over-marked %d lines (e.g. 0x%x)"
            % (len(overmarked), min(overmarked)))
    if lines_checked == 0:
        problems.append("no surviving checker completed: recovery lost the"
                        " whole machine (available=%s)" % sorted(available))

    metrics = None
    if collect_metrics:
        from repro.telemetry.metrics import summarize_run
        metrics = summarize_run(machine)

    return ScheduleResult(
        schedule=schedule,
        passed=not problems,
        problems=problems,
        lines_checked=lines_checked,
        lines_marked_incoherent=len(oracle.marked_incoherent),
        lines_allowed_incoherent=len(oracle.may_be_incoherent or ()),
        reports=reports,
        restarts=sum(report.restarts for report in reports),
        episodes=len(reports),
        skipped_injections=len(machine.injector.skipped),
        metrics=metrics,
    )


def _manifestation_delay(spec):
    """Nanoseconds after injection before a probe can detect ``spec``: a
    delayed wedge manifests only after its dwell time, and probing earlier
    would find a healthy node and detect nothing."""
    if spec.fault_type == FaultType.DELAYED_WEDGE:
        return (spec.dwell or 2_000_000.0) + 50_000.0
    return 0.0


def inject_and_probe(machine, fault):
    """Inject ``fault`` now and aim the detection probe at it — the
    recovery-timing harnesses' whole fault step (no oracle, no settle
    loop; the caller runs the machine until recovered).  A false alarm
    triggers recovery by itself and needs no probe."""
    machine.injector.inject(fault)
    if fault.fault_type == FaultType.FALSE_ALARM:
        return
    delay = _manifestation_delay(fault)
    if delay:
        machine.run(until=machine.sim.now + delay)
    _start_schedule_prober(machine, fault, [])


def _start_schedule_prober(machine, spec, procs, retries=100):
    """Issue one read aimed into the faulted region to trigger detection
    (§4.2): its timeout, NAK overflow or truncated packet starts recovery.
    A link fault is probed from one endpoint to the other so the read has
    to cross the link; any other fault from the lowest-numbered idle
    survivor."""
    if spec.is_link_fault:
        prober, victim = spec.target
    else:
        victim = spec.target
        prober = None
    candidates = [node_id for node_id in machine.alive_nodes()
                  if node_id != victim
                  and not machine.nodes[node_id].processor.busy]
    if not candidates:
        # Every survivor is still running an earlier probe; probes are
        # short (bounded by the memory-op timeout) so retry shortly.
        if retries > 0:
            machine.sim.schedule(100_000.0, _start_schedule_prober,
                                 machine, spec, procs, retries - 1)
        return
    if prober is None or prober not in candidates:
        prober = candidates[0]
    proc = machine.nodes[prober].processor.run_program(
        _probe_program(machine, victim), name="prober%d" % prober)
    procs.append(proc)


# ------------------------------------------------------------------ figures 5.5-5.7

def start_recovery_run(config, fault, fill_fraction, run_limit,
                       telemetry=None):
    """The one front half of a recovery-timing run: build the machine,
    give it a light cached working set, inject ``fault`` and aim the
    detection probe; the caller runs the machine until recovered.

    Returns ``(machine, events_before, wall_start)`` — the simulator's
    event count and the host clock read after the fill and before the
    injection, for a caller that reports the recovery's cost alone.
    """
    machine = FlashMachine(config, telemetry=telemetry).start()
    fill_caches(machine, fill_fraction, config.seed, run_limit)
    wall_start = time.perf_counter()
    events_before = machine.sim.events_executed
    inject_and_probe(machine, fault)
    return machine, events_before, wall_start


def run_recovery_scalability(num_nodes, topology="mesh",
                             mem_per_node=1 << 20, l2_size=1 << 20,
                             fault=None, seed=0, fill_fraction=0.25,
                             config_overrides=None,
                             run_limit=200_000_000_000, telemetry=None):
    """Measure phase-resolved hardware recovery time (Figures 5.5/5.6).

    Returns the :class:`~repro.recovery.manager.RecoveryReport` of a
    recovery triggered by ``fault`` (default: failure of the highest-id
    node) on a machine that has a light cached working set.
    """
    overrides = dict(config_overrides or {})
    config = MachineConfig(
        num_nodes=num_nodes, topology=topology,
        mem_per_node=mem_per_node, l2_size=l2_size, seed=seed, **overrides)
    machine, _, _ = start_recovery_run(
        config, fault or FaultSpec.node_failure(num_nodes - 1),
        fill_fraction, run_limit, telemetry=telemetry)
    return machine.run_until_recovered(limit=run_limit)


def _probe_program(machine, victim_node):
    """Detection probe: an *uncached* read into the victim's memory, so a
    warm cache cannot satisfy it locally — it must cross the fabric and
    trip the memory-operation timeout (§4.2)."""
    from repro.common.errors import BusError
    from repro.node.processor import UncachedLoad
    try:
        yield UncachedLoad(machine.line_homed_at(victim_node))
    except BusError:
        pass
