"""The assembled machine: network + nodes + recovery manager + injector.

This is the main entry point of the library::

    from repro import FlashMachine, MachineConfig, FaultSpec

    machine = FlashMachine(MachineConfig(num_nodes=8))
    machine.start()
    ... run workloads ...
    machine.injector.inject(FaultSpec.node_failure(3))
    report = machine.run_until_recovered()

A machine is self-contained: its :class:`~repro.sim.Simulator` owns the
clock, the RNG and every id the run hands out, so two machines built from
one config and driven the same way behave identically, whatever else ran
in the process before them.
"""

from repro.core.config import MachineConfig
from repro.faults.injector import FaultInjector
from repro.faults.oracle import Oracle
from repro.interconnect.network import Network
from repro.interconnect.topology import make_topology
from repro.node.memory import AddressMap
from repro.node.node import Node
from repro.recovery.manager import RecoveryManager
from repro.sim import Simulator
from repro.sim.process import all_finished


class FlashMachine:
    """A simulated FLASH multiprocessor with fault containment."""

    def __init__(self, config=None, hooks=None, os_recovery_callback=None,
                 telemetry=None):
        self.config = config or MachineConfig()
        self.params = self.config.params
        self.sim = Simulator(seed=self.config.seed)
        self.topology = make_topology(self.config.topology,
                                      self.config.num_nodes)
        self.network = Network(self.sim, self.params, self.topology)
        self.address_map = AddressMap(
            self.config.num_nodes, self.config.mem_per_node,
            line_size=self.params.line_size,
            page_size=self.params.page_size)
        self.oracle = hooks if hooks is not None else Oracle()
        self.nodes = [
            Node(self.sim, self.params, node_id, self.address_map,
                 self.network, l2_capacity_lines=self.config.l2_lines,
                 hooks=self.oracle,
                 firewall_enabled=self.config.firewall_enabled,
                 speculation_rate=self.config.speculation_rate)
            for node_id in range(self.config.num_nodes)
        ]
        self.recovery_manager = RecoveryManager(
            self.sim, self.params, self.topology, self.nodes,
            failure_units=self.config.resolved_failure_units(),
            speculative_pings=self.config.speculative_pings,
            bft_hints=self.config.bft_hints,
            os_recovery_callback=os_recovery_callback,
            p4_skip_flush=self.config.reliable_interconnect_p4)
        self.injector = FaultInjector(self)
        self._started = False
        #: telemetry bundle (or None) — tracing is disabled unless one is
        #: attached; the per-component ``trace`` attributes stay None and
        #: every emission site reduces to a single attribute check.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind(self.sim)
            self.attach_recorder(telemetry.recorder)

    def attach_recorder(self, recorder):
        """Point every instrumented component at ``recorder``."""
        for router in self.network.routers:
            router.trace = recorder
        for interface in self.network.interfaces:
            interface.trace = recorder
        for node in self.nodes:
            node.magic.trace = recorder
        self.recovery_manager.trace = recorder
        self.injector.trace = recorder
        return recorder

    # ------------------------------------------------------------------ running

    def start(self):
        """Spawn all hardware processes; idempotent."""
        if self._started:
            return self
        self.network.start()
        for node in self.nodes:
            node.start()
        self._started = True
        return self

    def node(self, node_id):
        return self.nodes[node_id]

    def run(self, until=None):
        return self.sim.run(until=until)

    def run_until(self, predicate, limit=None):
        return self.sim.run_until(predicate, limit=limit)

    def run_programs(self, programs, limit=2_000_000_000):
        """Run (node_id, program) pairs until all their processors halt."""
        procs = [self.nodes[node_id].processor.run_program(program)
                 for node_id, program in programs]
        self.sim.run_until(all_finished(procs), limit=limit)
        return procs

    def run_until_recovered(self, limit=10_000_000_000):
        """Run until a recovery episode that is in progress — or about to be
        triggered — completes.  Returns its RecoveryReport.

        Episodes that completed before this call do not count: the caller
        wants the recovery of the fault it just injected.
        """
        manager = self.recovery_manager
        baseline = len(manager.reports)
        if manager.in_progress:
            baseline -= 1   # the current episode is the one awaited

        def done():
            return (not manager.in_progress
                    and len(manager.reports) > baseline)

        self.sim.run_until(done, limit=limit)
        return manager.reports[-1]

    # --------------------------------------------------------------- conveniences

    def alive_nodes(self):
        return [n.node_id for n in self.nodes
                if not n.failed and not n.magic.failed]

    def line_homed_at(self, node_id, index=0):
        """The ``index``-th usable line address homed at ``node_id``."""
        start, end = self.address_map.usable_range(node_id)
        address = start + index * self.params.line_size
        if address >= end:
            raise IndexError("line index %d beyond node %d memory"
                             % (index, node_id))
        return address

    def usable_lines(self, node_id):
        return list(self.address_map.usable_lines(node_id))

    def all_usable_lines(self):
        """Every general-purpose coherent line in the machine (cached —
        the list is large for big memory configurations)."""
        if not hasattr(self, "_all_lines_cache"):
            lines = []
            for node_id in range(self.config.num_nodes):
                lines.extend(self.address_map.usable_lines(node_id))
            self._all_lines_cache = lines
        return self._all_lines_cache

    def quiesce(self, settle_time=1_000_000.0):
        """Let in-flight traffic finish (no new programs are running)."""
        self.sim.run(until=self.sim.now + settle_time)


class MachineFactory:
    """Accepted for old callers: ``build`` is ``FlashMachine(config, ...)``.

    Every run builds its machine from scratch, so a run's record depends
    on its ``(seed, schedule)`` alone; there is nothing to share.
    """

    def build(self, config, telemetry=None, hooks=None):
        return FlashMachine(config, hooks=hooks, telemetry=telemetry)
