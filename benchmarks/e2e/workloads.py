"""The four workloads: seeded op plans and the code that runs one op.

An *op* is one complete experiment — build, fill, inject, recover, judge.
Every plan is a pure function of ``(seed, count)``, and a shorter plan is a
prefix of a longer one, so the traced pass and ``--smoke`` run ops the
full run also runs and their simulated statistics can be compared.

Op counts are sized for ``RUN_SECONDS`` on the 2-core sandbox (host
seconds per op in the comments below were measured there); ``--seconds``
scales them linearly.  All loops are closed: the next op starts when the
previous one returns.

The sandbox's speed drifts by 5-10% over seconds, and CPU time drifts with
it, so a single pass over the ops is too noisy to hold a 15% bound.  Each
untraced run therefore makes ``passes`` passes over the same ops and keeps
every op's fastest time; the passes must also agree on every simulated
statistic, which makes each run its own determinism check.
"""

import dataclasses
import os
import random
import statistics
import tempfile
import time

from repro.campaign.pool import (
    FLIGHT_CAPACITY,
    FLIGHT_DUMP_EVENTS,
    STRAY_DUMP_THRESHOLD,
)
from repro.campaign.records import RunStatus
from repro.campaign.runner import CampaignRunner
from repro.core.config import MachineConfig
from repro.core.experiment import run_schedule_experiment
from repro.core.machine import MachineFactory
from repro.faults.models import TABLE_5_2_FAULT_TYPES, FaultSpec
from repro.hive.endtoend import run_end_to_end_experiment
from repro.interconnect.topology import make_topology
from repro.telemetry import Telemetry, forensics
from repro.telemetry.scalability import run_scalability_point
from repro.telemetry.status import read_status

#: ``run_seconds`` of BENCHMARK.json — the op counts below (times the
#: passes) fill this long a timed section on the 2-core sandbox
RUN_SECONDS = 20


@dataclasses.dataclass
class OpResult:
    """Outcome of one op.  ``stats`` holds simulated statistics only (it
    feeds ``sim_digest``); host time never enters it."""

    stats: dict
    events: int              # simulator events the op executed
    recovery_ms: float       # simulated hardware recovery latency, or None
    failed: bool             # counted in fail_share
    aborted: bool = False    # CRASHED/HUNG: the benchmark exits nonzero
    host_s: float = 0.0      # filled in by whoever timed the op
    machines: list = None    # FlashMachines the op built (dropped after
                             # the traced pass harvested their counters)


def percentile(samples, share):
    """Nearest-rank percentile (the sample itself when there is one)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Workload:
    """One set of inputs.  Subclasses give ``plan`` and ``run_op``."""

    name = None         # as in BENCHMARK.json, which also says why
    ops = None          # ops per pass of a RUN_SECONDS timed section
    traced_ops = None   # ops in the traced pass (and its untraced twin)
    smoke_ops = None    # ops under --smoke
    passes = 3          # untraced passes over the ops; fastest time kept
    serial = True       # ops run one after another in this process

    def count(self, seconds, traced=False, smoke=False):
        if smoke:
            return self.smoke_ops
        base = self.traced_ops if traced else self.ops
        return max(1, round(base * seconds / RUN_SECONDS))

    def plan(self, seed, count):
        raise NotImplementedError

    def warmup_op(self, seed):
        """The untimed op that precedes a timed section (part of set-up)."""
        return self.plan(seed, 1)[0]

    def run_op(self, op, tap):
        raise NotImplementedError

    def recovery_ms(self, results):
        """``sim_recovery_ms``: median simulated recovery latency."""
        return statistics.median(
            result.recovery_ms for result in results
            if result.recovery_ms is not None)

    def run_pass(self, seed, count, tap, workdir):
        """One untraced pass: ``(results, host_s, campaign)``, where
        ``campaign`` is the ``campaign.*`` layer numbers (None off the
        campaign workload)."""
        results = run_ops(self, self.plan(seed, count), tap)
        return results, sum(result.host_s for result in results), None

    def run_untraced(self, seed, count, tap, workdir, passes=None):
        """The timed section with tracing off: best of ``passes`` passes.

        Returns the fastest pass's ``(results, host_s, campaign)`` with
        every op's ``host_s`` replaced by its fastest over all passes.
        Where ops run one after another in this process (``serial``), the
        timed section is the sum of those fastest times.
        """
        runs = [self.run_pass(seed, count, tap, workdir)
                for _ in range(passes or self.passes)]
        stats = [[result.stats for result in run[0]] for run in runs]
        if any(other != stats[0] for other in stats[1:]):
            raise RuntimeError("%s: two passes over the same ops simulated "
                               "different things" % self.name)
        results, host_s, campaign = min(runs, key=lambda run: run[1])
        for index, result in enumerate(results):
            result.host_s = min(run[0][index].host_s for run in runs)
        if self.serial:
            host_s = sum(result.host_s for result in results)
        return results, host_s, campaign


def run_ops(workload, ops, tap, tracer=None):
    """Closed loop over ``ops`` in this process; each result carries the
    host seconds of its op."""
    results = []
    for op_id, op in enumerate(ops):
        op_started = time.perf_counter()
        if tracer is None:
            result = workload.run_op(op, tap)
        else:
            with tracer.span("op", op_id=op_id):
                result = workload.run_op(op, tap)
        result.host_s = time.perf_counter() - op_started
        if tracer is not None:
            tracer.harvest(result.machines)
        result.machines = None
        results.append(result)
    return results


# ------------------------------------------------------------ recovery points

class PointWorkload(Workload):
    """Ops are ``run_scalability_point(nodes, fault, topology, seed)``."""

    def warmup_op(self, seed):
        # A 128-node warm-up would double the run; a 16-node point runs
        # the same code in 0.2 s, small enough that setup_s still shows
        # a change in import or planning cost.
        return (16, "node_failure", "mesh", seed)

    def run_op(self, op, tap):
        nodes, fault, topology, seed = op
        result = run_scalability_point(nodes, fault, topology, seed=seed)
        sim = {key: value for key, value in result["sim"].items()
               if key not in ("wall_s", "events_per_sec")}
        recovery = result.get("recovery") or {}
        return OpResult(
            stats={"op": list(op), "completed": result["completed"],
                   "sim": sim, "recovery": recovery},
            events=result["sim"]["events_executed"],
            recovery_ms=recovery.get("total_ms"),
            failed=not result["completed"],
            machines=tap.take())


class Recover128(PointWorkload):
    name = "recover-128"
    ops = 1            # 20-22 s per op
    traced_ops = 1
    smoke_ops = 1
    passes = 1         # a second 128-node pass would double the run

    def __init__(self, nodes=128):
        self.nodes = nodes

    def plan(self, seed, count):
        return [(self.nodes, "node_failure", "mesh", seed + index)
                for index in range(count)]


class RecoverSweep(PointWorkload):
    name = "recover-sweep"
    ops = 24           # every config once; 0.05-1.0 s per op, 7 s a pass
    traced_ops = 24
    smoke_ops = 3
    configs = [(nodes, fault, topology)
               for topology in ("mesh", "hypercube")
               for fault in ("node_failure", "router_failure",
                             "link_failure", "false_alarm")
               for nodes in (8, 16, 32)]

    def plan(self, seed, count):
        return [self.configs[index % len(self.configs)]
                + (seed + index // len(self.configs),)
                for index in range(count)]


# ------------------------------------------------------------------- campaign

#: Campaign seeds whose first 64 ``fault-during-recovery`` runs all PASS at
#: the commit that defined the benchmark.  The tree still has unexplained
#: oracle FAILs at about one run in 200 (ROADMAP, first open item); a FAIL
#: changes the work an op does (forensics, flight dump) and would turn
#: fail_share into seed noise, so ``--seed`` picks from this list.
CLEAN_CAMPAIGN_SEEDS = (0, 1, 4, 6, 7, 8, 10, 11, 13, 17, 19, 28)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Campaign8(Workload):
    name = "campaign-8"
    ops = 18           # 0.67 s per op on each of 2 workers, 6.5 s a pass
    traced_ops = 10
    smoke_ops = 4
    serial = False     # pool workers: the timed section is the wall time

    def __init__(self):
        self.factory = MachineFactory()
        self.defaults = CampaignRunner()   # machine sizes and run limit

    def runner(self, seed, count, jobs=1, out_path=None):
        return CampaignRunner(
            kind="fault-during-recovery", runs=count,
            campaign_seed=CLEAN_CAMPAIGN_SEEDS[
                seed % len(CLEAN_CAMPAIGN_SEEDS)],
            num_nodes=8, jobs=jobs, reuse_machines=True,
            telemetry_mode="flight", out_path=out_path)

    def plan(self, seed, count):
        runner = self.runner(seed, count)
        return [runner.plan_run(index) for index in range(count)]

    def run_op(self, op, tap):
        """One planned run in this process, through the same public calls
        a flight-mode pool worker makes."""
        seed, schedule = op
        runner = self.defaults
        config = MachineConfig(
            num_nodes=schedule.num_nodes, topology=schedule.topology,
            mem_per_node=runner.mem_per_node, l2_size=runner.l2_size,
            seed=seed)
        telemetry = Telemetry(trace=False, flight=FLIGHT_CAPACITY)
        machine = self.factory.build(config, telemetry=telemetry)
        result = run_schedule_experiment(
            schedule, seed=seed, run_limit=runner.run_limit,
            telemetry=telemetry, collect_metrics=True, machine=machine)
        if not result.passed:
            forensics.forensic_summary(telemetry.recorder)
        strays = sum(node.magic.stats.stray_messages
                     for node in machine.nodes)
        if not result.passed or strays >= STRAY_DUMP_THRESHOLD:
            telemetry.recorder.dump(limit=FLIGHT_DUMP_EVENTS)
        status = RunStatus.PASS if result.passed else RunStatus.FAIL
        return self._result(status, result.restarts, result.episodes,
                            len(result.problems), result.metrics,
                            machines=tap.take())

    @staticmethod
    def _result(status, restarts, episodes, problems, metrics, **extra):
        recovery = metrics.get("recovery", {})
        phases = recovery.get("phase_ms")
        return OpResult(
            stats={"status": status.value, "restarts": restarts,
                   "episodes": episodes, "problems": problems,
                   "metrics": metrics},
            events=metrics.get("sim_events", 0),
            # Not total_ms: a restarted episode adds whole 200 ms restart
            # timeouts, so the total is tri-modal.  The completing
            # attempt's P1..P4 is the hardware latency the other
            # workloads report.
            recovery_ms=(sum(phases[phase] for phase in phases
                             if phase.startswith("P")) if phases else None),
            failed=status is not RunStatus.PASS,
            aborted=status.is_abort, **extra)

    def recovery_ms(self, results):
        # Where the faults strike splits the runs into a 19 ms and a 33 ms
        # cluster; the median sits on the boundary and moves 8% with the
        # seed, the lower quartile stays inside the fast cluster (<2%).
        return percentile([result.recovery_ms for result in results
                           if result.recovery_ms is not None], 0.25)

    def run_pass(self, seed, count, tap, workdir):
        jobs = min(2, cpu_count())
        out_path = os.path.join(tempfile.mkdtemp(dir=workdir),
                                "campaign.jsonl")
        runner = self.runner(seed, count, jobs=jobs, out_path=out_path)
        started = time.perf_counter()
        summary = runner.run()
        wall_s = time.perf_counter() - started
        results = []
        for record in summary.records:
            results.append(self._result(
                record.status, record.restarts, record.episodes,
                len(record.problems), record.metrics,
                host_s=record.elapsed_s))
        status = read_status(out_path + ".status.json")
        if len(results) != count or not status.get("finished") \
                or status.get("done") != count:
            raise RuntimeError("campaign lost runs: %d records, status %r"
                               % (len(results), status))
        worker_s = sum(record.elapsed_s for record in summary.records)
        return results, wall_s, {
            "campaign.worker_run_s": worker_s,
            "campaign.worker_utilization": worker_s / (wall_s * jobs),
            "campaign.harness_overhead_s": wall_s - worker_s / jobs,
            "campaign.record_bytes_per_run":
                os.path.getsize(out_path) / count,
        }


# ----------------------------------------------------------------------- hive

class HivePmake(Workload):
    name = "hive-pmake"
    ops = 40           # 5 fault types x 8 targets, 0.08-0.5 s per op,
    traced_ops = 20    # 8 s a pass
    smoke_ops = 5

    def plan(self, seed, count):
        """Fault types in turn, targets drawn without replacement.

        A Hive op's cost is set by its fault's type and target alone (0.08 s
        when cell 0, the file server, dies; 0.5 s for a wedged MAGIC), so
        targets drawn independently would make the op mix, and with it
        every timing, a function of the seed.  Each type instead visits
        every target once before repeating one; the seed picks the order.
        """
        mesh8 = make_topology("mesh", 8)
        rng = random.Random(seed)
        used = {fault_type: set() for fault_type in TABLE_5_2_FAULT_TYPES}
        ops = []
        for index in range(count):
            fault_type = TABLE_5_2_FAULT_TYPES[
                index % len(TABLE_5_2_FAULT_TYPES)]
            try:
                fault = FaultSpec.random(rng, mesh8, fault_type,
                                         exclude=used[fault_type])
            except ValueError:             # every target visited: again
                used[fault_type].clear()
                fault = FaultSpec.random(rng, mesh8, fault_type)
            used[fault_type].add(frozenset(fault.target)
                                 if fault.is_link_fault else fault.target)
            ops.append((fault, seed + index))
        return ops

    def warmup_op(self, seed):
        return (FaultSpec.node_failure(7), seed)

    def run_op(self, op, tap):
        fault, seed = op
        result = run_end_to_end_experiment(fault, seed=seed)
        machines = tap.take()
        sim = machines[-1].sim
        return OpResult(
            stats={"fault": fault.to_dict(), "seed": seed,
                   "recovered": result.recovered,
                   "os_recovered": result.os_recovered,
                   "compiles_expected": result.compiles_expected,
                   "compiles_correct": result.compiles_correct,
                   "failed": result.failed,
                   "hw_recovery_ns": result.hw_recovery_ns,
                   "os_recovery_ns": result.os_recovery_ns,
                   "sim_events": sim.events_executed, "sim_ns": sim.now},
            events=sim.events_executed,
            recovery_ms=result.hw_recovery_ns / 1e6,
            failed=result.failed or not result.recovered,
            machines=machines)


def make_workloads(smoke=False):
    """The workloads by name; ``smoke`` swaps the 128-node point for a
    16-node one (op counts come from ``Workload.count``)."""
    return {workload.name: workload for workload in (
        Recover128(16 if smoke else 128), RecoverSweep(), Campaign8(),
        HivePmake())}
