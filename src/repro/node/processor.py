"""Workload-driven processor model.

A *program* is a Python generator that yields memory operations
(:class:`Load`, :class:`Store`, :class:`UncachedLoad`, :class:`UncachedStore`,
:class:`Compute`, :class:`FlushLine`) and receives each operation's result
back through ``send``.  Bus errors raised by MAGIC are thrown *into* the
program, mirroring how real code sees them as exceptions; a program that
does not catch one terminates (like a process taking SIGBUS).

The processor supports being **dropped into recovery**: MAGIC interrupts it
(the forced-cache-error analog of §4.2), it parks until recovery completes,
then resumes and reissues the interrupted cacheable reference.  A pending
uncached read is *not* reissued — its result is consumed from MAGIC's saved
buffer to preserve exactly-once semantics (§4.2).

The paper's runs use the R4000, which does not speculate (§5.1); a program
models the R10000's mispredicted-branch write (§3.3) by yielding a
:class:`SpeculativeStore` explicitly.
"""

from repro.common.errors import BusError
from repro.common.types import AccessKind
from repro.sim import Event, Interrupt


class Load:
    kind = AccessKind.LOAD
    __slots__ = ("address",)

    def __init__(self, address):
        self.address = address

    def __repr__(self):
        return "Load(0x%x)" % self.address


class Store:
    kind = AccessKind.STORE
    speculative = False
    __slots__ = ("address", "value")

    def __init__(self, address, value=None):
        self.address = address
        #: None until the executing processor stamps a value unique in
        #: its machine (``sim.store_tokens``)
        self.value = value

    def __repr__(self):
        return "Store(0x%x, %r)" % (self.address, self.value)


class SpeculativeStore(Store):
    """A write issued down a mispredicted path (paper §3.3).

    The R10000 may issue the exclusive fetch for a store that never
    architecturally executes: the line is pulled into the cache in
    exclusive mode, but no data is written.  If the node then fails, the
    arbitrary fetched line dies with it — which is why the firewall must
    be able to refuse exclusive fetches (§3.3).
    """

    speculative = True

    def __repr__(self):
        return "SpeculativeStore(0x%x)" % self.address


class UncachedLoad:
    kind = AccessKind.UNCACHED_LOAD
    __slots__ = ("address",)

    def __init__(self, address):
        self.address = address

    def __repr__(self):
        return "UncachedLoad(0x%x)" % self.address


class UncachedStore:
    kind = AccessKind.UNCACHED_STORE
    __slots__ = ("address", "value")

    def __init__(self, address, value):
        self.address = address
        self.value = value

    def __repr__(self):
        return "UncachedStore(0x%x, %r)" % (self.address, self.value)


class Compute:
    """Spend time without touching memory."""

    kind = "compute"
    __slots__ = ("duration",)

    def __init__(self, duration):
        self.duration = duration


class FlushLine:
    kind = AccessKind.FLUSH
    __slots__ = ("address",)

    def __init__(self, address):
        self.address = address


class ProcessorStats:
    def __init__(self):
        self.ops_executed = 0
        self.loads = 0
        self.stores = 0
        self.uncached_ops = 0
        self.bus_errors = 0
        self.recoveries_survived = 0


class Processor:
    """One R4000/R10000-style processor driving a workload program."""

    def __init__(self, sim, params, node_id, magic, cache):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.magic = magic
        self.cache = cache
        magic.cache = cache
        self.stats = ProcessorStats()
        self.done = Event(sim, name="cpu%d.done" % node_id)
        self.program_result = None
        self.program_error = None
        self.halted = False
        self._proc = None
        #: event the processor waits on while recovery runs; recreated by
        #: the recovery manager for every recovery episode
        self.recovery_done = None

    @property
    def busy(self):
        """Is a program currently executing on this processor?"""
        return self._proc is not None and self._proc.alive

    def run_program(self, program, name=None):
        """Start executing a workload program; returns the driver process.

        May be called again after a previous program finished (per-program
        completion state is reset).
        """
        if self._proc is not None and self._proc.alive:
            raise RuntimeError(
                "processor %d is already running a program" % self.node_id)
        self.done = Event(self.sim, name="cpu%d.done" % self.node_id)
        self.program_result = None
        self.program_error = None
        self.halted = False
        self._proc = self.sim.spawn(
            self._run(program),
            name=name or "cpu%d" % self.node_id)
        return self._proc

    # ------------------------------------------------------------------- core

    def _run(self, program):
        to_send = None
        throw_error = None
        while True:
            try:
                if throw_error is not None:
                    error, throw_error = throw_error, None
                    op = program.throw(error)
                else:
                    op = program.send(to_send)
            except StopIteration as stop:
                self.program_result = stop.value
                break
            except BusError as error:
                # The program did not catch the bus error: it dies, like a
                # process taking SIGBUS.
                self.program_error = error
                break

            while True:
                try:
                    outcome = yield from self._execute(op)
                except Interrupt:
                    # Dropped into recovery: park, then retry the op.
                    retry = yield from self._park_for_recovery(op)
                    if retry is _RETRY:
                        continue
                    outcome = ("ok", retry)
                if outcome[0] == "requeue":
                    # The memory system refused the op (recovery raced our
                    # issue): park, then retry.
                    retry = yield from self._park_for_recovery(op)
                    if retry is _RETRY:
                        continue
                    outcome = ("ok", retry)
                break

            status, value = outcome
            if status == "ok":
                to_send = value
            else:
                self.stats.bus_errors += 1
                throw_error = value
        self.halted = True
        self.done.trigger(self.program_result)
        return self.program_result

    def _execute(self, op):
        """Execute one operation; returns ("ok", value) or ("error", err)."""
        self.stats.ops_executed += 1
        if op.kind == "compute":
            yield op.duration
            return ("ok", None)

        if op.kind == AccessKind.LOAD:
            return (yield from self._cacheable(op, for_write=False))
        if op.kind == AccessKind.STORE:
            if op.value is None:
                op.value = ("st", next(self.sim.store_tokens))
            return (yield from self._cacheable(op, for_write=True))
        if op.kind in (AccessKind.UNCACHED_LOAD, AccessKind.UNCACHED_STORE):
            self.stats.uncached_ops += 1
            result = yield self.magic.pi_request(op)
            return result
        if op.kind == AccessKind.FLUSH:
            result = yield self.magic.pi_request(op)
            return result
        raise AssertionError("unknown op %r" % (op,))

    def _cacheable(self, op, for_write):
        if for_write:
            self.stats.stores += 1
        else:
            self.stats.loads += 1
        if not self.magic.address_map.is_vector_range(op.address):
            line = self.magic.address_map.line_address(op.address)
            hit = self.cache.lookup(line, for_write=for_write)
            if hit is not None:
                yield self.params.l1_hit_time
                if for_write:
                    self.cache.write(line, op.value)
                    self.magic.hooks.on_store(self.node_id, line, op.value)
                    return ("ok", op.value)
                return ("ok", hit.value)
        result = yield self.magic.pi_request(op)
        return result

    def _park_for_recovery(self, op):
        """Wait out a recovery episode, then decide how to resume ``op``.

        Returns the sentinel ``_RETRY`` to reissue, or a value when the op
        was satisfied from the saved uncached buffer.
        """
        self.stats.recoveries_survived += 1
        while True:
            event = self.recovery_done
            if event is None:
                # Recovery manager not attached (unit tests): wait a beat.
                yield 1000.0
                return _RETRY
            try:
                yield event
                break
            except Interrupt:
                continue   # recovery restarted; keep waiting

        if op.kind == AccessKind.UNCACHED_LOAD:
            consumed, value = self.magic.consume_saved_uncached(op)
            if consumed:
                return value
        if op.kind == AccessKind.UNCACHED_STORE:
            consumed, _ = self.magic.consume_saved_uncached(op)
            if consumed:
                return None
        return _RETRY

    def kill(self):
        if self._proc is not None:
            self._proc.kill()
        self.halted = True

    def interrupt_for_recovery(self):
        """MAGIC forces the processor out of normal execution (§4.2)."""
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("recovery")


_RETRY = object()
