"""Tracing from outside: spans around public entry points, one
``SimProfiler`` per machine, and the per-layer metrics made from both.

Nothing under ``src/`` knows about this module.  ``Tracer`` replaces a
fixed list of public functions and methods with span-recording wrappers
for as long as it is installed, and hooks ``Simulator.profiler`` (the
public attach point) on every machine built meanwhile.  Layer names are
``src/repro`` package names.

Two cuts of the same host time come out:

* the *layer* cut — handler time by process family (from the profilers),
  ``sim.self_s`` (run-loop time minus handler time) and the self time of
  every other span; these add up to an op's duration minus the time its
  root span spent in unwrapped harness code (``trace.accounted_share``);
* the *phase* cut — ``core.build_s``, ``core.fill_s``, ``core.recover_s``
  and ``core.run_until_s`` are whole durations of the machine calls an
  experiment makes, run loop and handlers included.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter

from repro.coherence.protocol import ProtocolEngine
from repro.core.machine import FlashMachine
from repro.faults.oracle import Oracle
from repro.hive.os import HiveOS
from repro.sim.engine import Simulator
from repro.telemetry import forensics, metrics
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.profiler import SimProfiler


class MachineTap:
    """Benchmark-side handle on every ``FlashMachine`` built while
    installed — how an op's event count is read when the experiment
    function keeps its machine to itself."""

    def __init__(self):
        self.machines = []
        self.on_build = None      # called with each machine (the tracer's)
        self._original = None

    def install(self):
        original = self._original = FlashMachine.__init__
        tap = self

        def init(machine, *args, **kwargs):
            original(machine, *args, **kwargs)
            tap.machines.append(machine)
            if tap.on_build is not None:
                tap.on_build(machine)

        FlashMachine.__init__ = init
        return self

    def uninstall(self):
        FlashMachine.__init__ = self._original

    def take(self):
        machines, self.machines = self.machines, []
        return machines


#: (owner, attribute, span name) — the public entry points that become
#: spans.  ``HiveOS.__init__`` contains ``FlashMachine.__init__``, so a
#: Hive boot's self time excludes machine construction.
SPAN_POINTS = (
    (FlashMachine, "__init__", "core.build"),
    (FlashMachine, "start", "core.build"),
    (FlashMachine, "run_programs", "core.fill"),
    (FlashMachine, "run_until_recovered", "core.recover"),
    (FlashMachine, "run_until", "core.run_until"),
    (Simulator, "run", "sim.run"),
    (Simulator, "run_until", "sim.run"),
    (Oracle, "snapshot_at_injection", "faults.oracle"),
    (Oracle, "overmarked_lines", "faults.oracle"),
    (metrics, "summarize_run", "telemetry.summarize"),
    (forensics, "forensic_summary", "telemetry.forensics"),
    (FlightRecorder, "dump", "telemetry.flight_dump"),
    (HiveOS, "__init__", "hive.boot"),
    (HiveOS, "start", "hive.boot"),
)

#: profiler label family (text before ``;``) prefix -> layer bucket
FAMILY_PREFIXES = (
    ("routerN", "interconnect"), ("Router.", "interconnect"),
    ("niN.", "interconnect"), ("NodeInterface.", "interconnect"),
    ("magicN", "magic"), ("Magic.", "magic"),
    ("cpuN", "cpu"),
    ("recoveryN.", "recovery"), ("RecoveryManager.", "recovery"),
    ("FaultInjector.", "faults"), ("proberN", "faults"),
    ("_start_schedule_prober", "faults"),
    ("ccN", "hive"), ("heartbeat.", "hive"), ("monitor.", "hive"),
    ("rpc.", "hive"), ("hive.", "hive"),
)


def bucket_of(label):
    family = label.split(";", 1)[0]
    for prefix, bucket in FAMILY_PREFIXES:
        if family.startswith(prefix):
            return bucket
    return "unmapped"


class Tracer:
    """Span recorder plus the counters harvested from each op's machines.

    A span is ``[name, start, end, parent, op_id]`` with ``parent`` an
    index into ``spans`` (None for an op's root).
    """

    def __init__(self, tap):
        self.tap = tap
        self.spans = []
        self._open = []
        self._op_id = None
        self._saved = []
        self.profile = SimProfiler()      # every machine's, merged
        self.coherence = [0, 0.0]         # ProtocolEngine.handle calls, s
        self.events = 0
        self.compactions = 0
        self.packets_forwarded = 0
        self.restarts = 0
        self.phase_ms = {"P1": [], "P2": [], "P3": [], "P4": []}

    # --------------------------------------------------------- installing

    def install(self):
        for owner, attr, name in SPAN_POINTS:
            self._replace(owner, attr,
                          self._spanned(getattr(owner, attr), name))
        self._replace(ProtocolEngine, "handle",
                      self._counted(ProtocolEngine.handle, self.coherence))
        self.tap.on_build = self._attach_profiler
        return self

    def uninstall(self):
        self.tap.on_build = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, original, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)
        return wrapper

    @staticmethod
    def _counted(original, total):
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += perf_counter() - started
        return wrapper

    @staticmethod
    def _attach_profiler(machine):
        machine.sim.profiler = SimProfiler()

    # ------------------------------------------------------------- spans

    @contextmanager
    def span(self, name, op_id=None):
        if op_id is not None:
            self._op_id = op_id
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self._op_id]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def harvest(self, machines):
        """Fold the counters of one op's machines into the totals."""
        for machine in machines:
            sim = machine.sim
            self.events += sim.events_executed
            self.compactions += sim.compactions
            if sim.profiler is not None:
                self.profile.merge(sim.profiler)
            self.packets_forwarded += sum(
                router.stats.forwarded for router in machine.network.routers)
            reports = machine.recovery_manager.reports
            self.restarts += sum(report.restarts for report in reports)
            if reports:
                for phase, samples in self.phase_ms.items():
                    duration = reports[-1].phase_durations.get(phase)
                    if duration is not None:
                        samples.append(duration / 1e6)

    def span_dicts(self):
        return [dict(zip(("name", "start", "end", "parent", "op_id"), span))
                for span in self.spans]

    # ----------------------------------------------------------- metrics

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json except ``campaign.*``
        and ``trace.overhead_ratio`` (those need the untraced pass)."""
        duration = {}      # span name -> total seconds
        self_time = {}     # span name -> seconds not covered by children
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                children[parent] += end - start
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            duration[name] = duration.get(name, 0.0) + end - start
            self_time[name] = (self_time.get(name, 0.0)
                               + end - start - children[index])

        busy = {}          # bucket -> [dispatches, seconds]
        router_wakeups = 0
        for label, count, wall in self.profile.top(limit=None):
            entry = busy.setdefault(bucket_of(label), [0, 0.0])
            entry[0] += count
            entry[1] += wall
            if label.startswith("routerN"):
                router_wakeups += count

        def dispatches(bucket):
            return busy.get(bucket, (0, 0.0))[0]

        def seconds(bucket):
            return busy.get(bucket, (0, 0.0))[1]

        def per(total_s, count):
            return total_s / count * 1e6 if count else 0.0

        def median(samples):
            return statistics.median(samples) if samples else 0.0

        coherence_n, coherence_s = self.coherence
        sim_self = duration.get("sim.run", 0.0) - self.profile.wall_s
        op_s = duration.get("op", 0.0)
        values = {
            "sim.events": (self.events, "count"),
            "sim.self_s": (sim_self, "s"),
            "sim.us_per_event": (per(sim_self, self.events), "us"),
            "sim.compactions": (self.compactions, "count"),
            "interconnect.busy_s": (seconds("interconnect"), "s"),
            "interconnect.dispatches": (dispatches("interconnect"), "count"),
            "interconnect.us_per_dispatch": (
                per(seconds("interconnect"), dispatches("interconnect")),
                "us"),
            "interconnect.router_wakeups": (router_wakeups, "count"),
            "interconnect.packets_forwarded": (
                self.packets_forwarded, "count"),
            "interconnect.wakeups_per_packet": (
                router_wakeups / self.packets_forwarded
                if self.packets_forwarded else 0.0, "ratio"),
            # ProtocolEngine.handle runs inside a MAGIC dispatch.
            "node.magic_busy_s": (seconds("magic") - coherence_s, "s"),
            "node.magic_dispatches": (dispatches("magic"), "count"),
            "node.cpu_busy_s": (seconds("cpu"), "s"),
            "node.cpu_dispatches": (dispatches("cpu"), "count"),
            "coherence.busy_s": (coherence_s, "s"),
            "coherence.messages": (coherence_n, "count"),
            "coherence.us_per_message": (
                per(coherence_s, coherence_n), "us"),
            "recovery.busy_s": (seconds("recovery"), "s"),
            "recovery.dispatches": (dispatches("recovery"), "count"),
            "recovery.us_per_dispatch": (
                per(seconds("recovery"), dispatches("recovery")), "us"),
            "recovery.restarts": (self.restarts, "count"),
            "core.build_s": (self_time.get("core.build", 0.0), "s"),
            "core.fill_s": (duration.get("core.fill", 0.0), "s"),
            "core.recover_s": (duration.get("core.recover", 0.0), "s"),
            "core.run_until_s": (duration.get("core.run_until", 0.0), "s"),
            "faults.busy_s": (seconds("faults"), "s"),
            "faults.oracle_s": (duration.get("faults.oracle", 0.0), "s"),
            "telemetry.summarize_s": (
                duration.get("telemetry.summarize", 0.0), "s"),
            "telemetry.forensics_s": (
                duration.get("telemetry.forensics", 0.0), "s"),
            "telemetry.flight_dump_s": (
                duration.get("telemetry.flight_dump", 0.0), "s"),
            "hive.busy_s": (
                seconds("hive") + self_time.get("hive.boot", 0.0), "s"),
            "hive.dispatches": (dispatches("hive"), "count"),
            "trace.unmapped_s": (seconds("unmapped"), "s"),
            "trace.accounted_share": (
                1.0 - self_time.get("op", 0.0) / op_s if op_s else 0.0,
                "ratio"),
        }
        for phase, samples in self.phase_ms.items():
            values["recovery.sim_ms.%s" % phase] = (median(samples), "ms")
        return values
