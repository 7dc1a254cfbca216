"""A Hive cell: one kernel instance managing one failure unit.

The cell's invariants (paper §3.3):

* kernel text and data live only in memory belonging to the cell's own
  failure unit, so a fault elsewhere can never make them inaccessible or
  incoherent;
* the kernel pages' firewall entries admit only the cell's own nodes, so
  wild or speculative writes from other cells bus-error instead of
  corrupting the kernel;
* other cells may *read* kernel data but must RPC to change it.

``kernel_access`` is the kernel-mode memory-access primitive used by kernel
threads and (scheduled) user processes: it retries around recovery episodes
and surfaces bus errors to the caller.
"""

from repro.common.errors import BusError, ReproError
from repro.common.types import page_of
from repro.hive.rpc import RpcEndpoint
from repro.sim import AnyOf, Event
from repro.sim.process import poke


class KernelMemoryError(ReproError):
    """A cell's own kernel data became unusable (should never happen for
    faults outside the cell's failure unit — this is the containment
    property the tests assert)."""


class Cell:
    """One Hive kernel."""

    def __init__(self, hive, cell_id, node_ids, kernel_pages=2):
        self.hive = hive
        self.machine = hive.machine
        self.sim = self.machine.sim
        self.params = self.machine.params
        self.cell_id = cell_id
        self.node_ids = frozenset(node_ids)
        self.lead_node = min(node_ids)
        self.magic = self.machine.nodes[self.lead_node].magic
        self.rpc = RpcEndpoint(self.sim, self.params, cell_id, self.magic)
        self.alive = True
        self.panic_reason = None
        self.processes = []            # UserProcess instances
        self.suspended = False

        # Kernel data pages: allocated at the base of the lead node's
        # usable memory, firewall-restricted to the cell's own nodes.
        page_size = self.params.page_size
        start, _ = self.machine.address_map.usable_range(self.lead_node)
        base = page_of(start + page_size - 1, page_size)
        self.kernel_pages = [base + i * page_size
                             for i in range(kernel_pages)]
        self.kernel_lines = [
            page + off
            for page in self.kernel_pages
            for off in range(0, page_size, self.params.line_size)
        ]

    # ------------------------------------------------------------------ startup

    def start(self):
        for page in self.kernel_pages:
            home_magic = self.machine.nodes[
                self.machine.address_map.home_of(page)].magic
            home_magic.set_firewall(page, self.node_ids)
        self.rpc.start()

    # --------------------------------------------------------------- kernel I/O

    def kernel_access(self, op):
        """Generator: perform a memory op in kernel mode.

        Returns the value; raises :class:`BusError` when MAGIC terminates
        the access.  Retries transparently around recovery episodes.
        Kernel code uses the node's cache like any other code: hits are
        served locally.
        """
        from repro.common.types import AccessKind
        cache = self.magic.cache
        if (cache is not None
                and op.kind in (AccessKind.LOAD, AccessKind.STORE)
                and not self.machine.address_map.is_vector_range(op.address)
                and not self.magic.in_recovery):
            line = self.machine.address_map.line_address(op.address)
            hit = cache.lookup(
                line, for_write=(op.kind == AccessKind.STORE))
            if hit is not None:
                yield self.params.l1_hit_time
                if op.kind == AccessKind.STORE:
                    cache.write(line, op.value)
                    self.magic.hooks.on_store(
                        self.magic.node_id, line, op.value)
                    return op.value
                return hit.value

        watchdog_interval = self.params.kernel_access_watchdog
        while True:
            if not self.alive:
                raise KernelMemoryError("cell %d is down" % self.cell_id)
            event = self.magic.pi_request(op)
            watchdog = Event(self.sim)
            timer = self.sim.schedule(
                watchdog_interval, poke, watchdog)
            index, result = yield AnyOf([event, watchdog])
            self.sim.cancel(timer)
            if index == 1:
                # Watchdog: recovery (or congestion) swallowed the request;
                # wait for the machine to settle and retry.
                yield from self._wait_out_recovery()
                continue
            status, value = result
            if status == "ok":
                return value
            if status == "requeue":
                yield from self._wait_out_recovery()
                continue
            raise value   # BusError

    def _wait_out_recovery(self):
        manager = self.machine.recovery_manager
        while manager.in_progress:
            if manager.episode_done is not None:
                yield manager.episode_done
            else:
                yield 100_000.0
        # Hold user-visible work until OS recovery has also finished.
        while self.hive.os_recovery_in_progress:
            yield self.hive.os_recovery_done_event
        yield 10_000.0

    def kernel_heartbeat(self):
        """Kernel thread periodically using the cell's own kernel data.

        A bus error here means our kernel data was damaged — which the
        containment design guarantees cannot happen unless our own failure
        unit faulted; in that case the recovery algorithm has already shut
        this cell down.
        """
        from repro.node.processor import Load, Store
        index = 0
        while self.alive:
            line = self.kernel_lines[index % len(self.kernel_lines)]
            index += 1
            try:
                if index % 4 == 0:
                    value = ("kernel", self.cell_id, index)
                    yield from self.kernel_access(Store(line, value=value))
                else:
                    yield from self.kernel_access(Load(line))
            except (BusError, KernelMemoryError) as error:
                if self.alive:
                    self.panic("kernel data lost: %s" % error)
                return
            yield 200_000.0

    # --------------------------------------------------------------------- fate

    def panic(self, reason):
        """Kernel crash: the cell and everything it runs are gone."""
        if not self.alive:
            return
        self.alive = False
        self.panic_reason = reason
        self.rpc.stop()
        for process in self.processes:
            process.terminate("cell %d panicked" % self.cell_id)
        self.hive.on_cell_panic(self)

    def shut_down(self, reason):
        """Clean stop (our failure unit lost hardware)."""
        if not self.alive:
            return
        self.alive = False
        self.panic_reason = reason
        self.rpc.stop()
        for process in self.processes:
            process.terminate(reason)

    def __repr__(self):
        state = "up" if self.alive else "DOWN(%s)" % self.panic_reason
        return "<Cell %d nodes=%s %s>" % (
            self.cell_id, sorted(self.node_ids), state)


class UserProcess:
    """A user-level process scheduled by a cell's kernel.

    The body is a generator using the cell's kernel services; its
    ``dependencies`` are the cells whose death must terminate it (§4.6).
    """

    def __init__(self, cell, name, body, dependencies=()):
        self.cell = cell
        self.name = name
        self.body = body
        self.dependencies = set(dependencies) | {cell.cell_id}
        self.proc = None
        self.state = "ready"
        self.termination_reason = None
        self.result = None

    def start(self):
        self.state = "running"
        self.proc = self.cell.sim.spawn(self._run(), name=self.name)
        return self.proc

    def _run(self):
        try:
            self.result = yield from self.body
        except Exception as error:   # repro-lint: disable=broad-except —
            # the Hive process shell is a crash-isolation boundary: a
            # process may die of any kernel-surfaced error (bus error,
            # dead cell, ...) and must become a 'failed' state, not
            # unwind the simulator.
            self.state = "failed"
            self.termination_reason = str(error)
            return
        if self.state == "running":
            self.state = "done"

    def terminate(self, reason):
        if self.state in ("done", "failed", "terminated"):
            return
        self.state = "terminated"
        self.termination_reason = reason
        if self.proc is not None:
            self.proc.kill()
