"""The Hive operating system model: cells + single system image + recovery.

The OS builds a machine whose hardware failure units coincide with its
cells (paper §3.3), wires itself to the hardware recovery manager's
completion interrupt (§4.6), and gates user-process resumption on its own
recovery pass — exactly the HW+OS suspension time that Figure 5.7 reports.
"""

import dataclasses

from repro.core.config import MachineConfig
from repro.core.machine import FlashMachine
from repro.hive.cell import Cell, UserProcess
from repro.hive.filesystem import FileService
from repro.sim import Event


@dataclasses.dataclass
class HiveConfig:
    """Configuration of a Hive boot."""

    cells: int = 8
    nodes_per_cell: int = 1
    mem_per_node: int = 1 << 20        # paper: 16 MB/cell (Table 5.1);
                                       # scaled down by default for CI speed
    l2_size: int = 1 << 16
    topology: str = "mesh"
    seed: int = 0
    file_server_cell: int = 0
    #: probability that the incoherent-line handling path hits one of the
    #: Hive bugs the paper reports (§5.2) and panics the cell.  0 models a
    #: fixed OS; ~0.5 reproduces Table 5.4's ≈8% failed-run rate (only a
    #: minority of runs create incoherent file lines at all).
    os_incoherent_bug_rate: float = 0.0

    @property
    def num_nodes(self):
        return self.cells * self.nodes_per_cell

    def cell_node_sets(self):
        per = self.nodes_per_cell
        return [frozenset(range(c * per, (c + 1) * per))
                for c in range(self.cells)]


class HiveOS:
    """A booted Hive system."""

    def __init__(self, config=None):
        self.config = config or HiveConfig()
        units = self.config.cell_node_sets()
        machine_config = MachineConfig(
            num_nodes=self.config.num_nodes,
            topology=self.config.topology,
            mem_per_node=self.config.mem_per_node,
            l2_size=self.config.l2_size,
            seed=self.config.seed,
            failure_units=tuple(units))
        self.machine = FlashMachine(
            machine_config, os_recovery_callback=self._on_hw_recovery)
        self.sim = self.machine.sim
        self.params = self.machine.params
        self.cells = [Cell(self, cell_id, nodes)
                      for cell_id, nodes in enumerate(units)]
        self.file_service = FileService(
            self.cells[self.config.file_server_cell])
        self.processes = []
        self.panics = []
        self.os_recovery_in_progress = False
        self.os_recovery_done_event = Event(self.sim, name="os.recovered")
        self.os_recovery_reports = []   # (hw_report, start, end)
        self._started = False

    # ------------------------------------------------------------------- boot

    def start(self):
        if self._started:
            return self
        self.machine.start()
        for cell in self.cells:
            cell.start()
            for peer in self.cells:
                cell.rpc.peers[peer.cell_id] = peer.lead_node
        self.file_service.register_services()
        for cell in self.cells:
            self.sim.spawn(cell.kernel_heartbeat(),
                           name="heartbeat.cell%d" % cell.cell_id)
            # Liveness monitoring: each kernel periodically probes its
            # peers' memory with uncached reads.  Besides feeding the OS's
            # membership view, these probes are what *detect* hardware
            # faults that user traffic never reaches (§4.2's memory
            # operation timeout fires on the probe).
            self.sim.spawn(self._membership_monitor(cell),
                           name="monitor.cell%d" % cell.cell_id)
        self._started = True
        return self

    def _membership_monitor(self, cell):
        from repro.common.errors import BusError
        from repro.hive.cell import KernelMemoryError
        from repro.node.processor import UncachedLoad

        # Probe every node of every peer cell: in a multi-node cell the
        # death of *any* member must be noticed.
        targets = [
            (peer, self.machine.line_homed_at(node_id, 0))
            for peer in self.cells if peer.cell_id != cell.cell_id
            for node_id in sorted(peer.node_ids)
        ]
        index = 0
        while cell.alive:
            if not targets:
                return
            peer, line = targets[index % len(targets)]
            index += 1
            if peer.alive:
                try:
                    # Uncached: a liveness probe must cross the fabric every
                    # time, never be answered from the local cache.
                    yield from cell.kernel_access(UncachedLoad(line))
                except (BusError, KernelMemoryError):
                    pass   # the dead cell is reported through OS recovery
            yield 500_000.0

    def cell_of_node(self, node_id):
        for cell in self.cells:
            if node_id in cell.node_ids:
                return cell
        raise KeyError(node_id)

    # -------------------------------------------------------------- processes

    def spawn_process(self, cell_id, name, body, dependencies=()):
        process = UserProcess(self.cells[cell_id], name, body, dependencies)
        self.cells[cell_id].processes.append(process)
        self.processes.append(process)
        process.start()
        return process

    # -------------------------------------------------------------- bug model

    def maybe_trip_incoherent_bug(self, cell):
        """Emulate the Hive bugs in the incoherent-line paths (§5.2)."""
        rate = self.config.os_incoherent_bug_rate
        if rate and self.sim.rng.random() < rate:
            cell.panic("OS bug handling incoherent line")
            return True
        return False

    def on_cell_panic(self, cell):
        self.panics.append((self.sim.now, cell.cell_id,
                            cell.panic_reason))

    # ------------------------------------------------------------ OS recovery

    def _on_hw_recovery(self, hw_report):
        """Hardware recovery completed: run Hive's own recovery (§4.6)."""
        self.os_recovery_in_progress = True
        self.os_recovery_done_event = Event(self.sim, name="os.recovered")
        self.sim.spawn(self._os_recovery(hw_report), name="hive.recovery")

    def _os_recovery(self, hw_report):
        start = self.sim.now
        available = hw_report.available_nodes

        # Cells whose nodes are gone were stopped by the hardware recovery
        # algorithm (failure-unit rule); reflect that in the OS state.
        dead_cells = []
        for cell in self.cells:
            if not cell.alive:
                dead_cells.append(cell.cell_id)
                continue
            if not cell.node_ids <= available:
                cell.shut_down("failure unit lost hardware")
                dead_cells.append(cell.cell_id)

        # Surviving cells adjust their kernel state: drop RPC sessions to
        # dead cells and terminate processes with essential dependencies on
        # them; unaffected applications continue (§4.6).
        survivors = [cell for cell in self.cells if cell.alive]
        for cell in survivors:
            for dead in dead_cells:
                cell.rpc.mark_cell_dead(dead)
            for process in cell.processes:
                if process.state == "running" and (
                        process.dependencies & set(dead_cells)):
                    process.terminate(
                        "dependency on dead cell(s) %s"
                        % sorted(process.dependencies & set(dead_cells)))

        # Kernel recovery work: fixed part plus a per-surviving-cell part —
        # OS recovery scales with cells, not nodes (§5.3).
        yield (self.params.os_recovery_fixed_ns
               + self.params.os_recovery_per_cell_ns * len(survivors))

        self.os_recovery_in_progress = False
        end = self.sim.now
        self.os_recovery_reports.append((hw_report, start, end))
        self.os_recovery_done_event.trigger((start, end))
        self.machine.recovery_manager.release_processors()
