"""The simulator core: one FIFO per due time, and a virtual clock.

Times are floats in nanoseconds.  Pending calls live in a dict mapping
each distinct due time to a deque of ``[callback, args]`` entries; a heap
orders the distinct times only (a calendar queue with one bucket per
exact time).  A FIFO's insertion order is its schedule order, so calls
run in (time, schedule order), the order of a ``(time, seq)`` heap,
without a sequence counter, and a zero-delay call never touches the
heap.  All randomness goes through the simulator-owned
:class:`random.Random` instance.

The entry is the caller's handle for :meth:`Simulator.cancel`.
Cancellation is *lazy deletion with amortized compaction*: a dead entry
stays queued until the dead outnumber the live, then every FIFO is
filtered in place.  That keeps the queue within 2x of the live count at
amortized O(1) per cancel — MAGIC arms and soon cancels a long-deadline
timeout for *every* memory operation — and, as filtering never reorders,
runs are bit-identical with compaction on or off (DESIGN.md §12;
``tests/test_sim_kernel.py`` and ``tests/test_sim_differential.py``).
"""

import itertools
import random
from collections import deque
from heapq import heapify, heappop, heappush


class Simulator:
    """Event-driven simulator with a nanosecond-resolution virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned RNG.  All stochastic model decisions
        must draw from :attr:`rng` so that runs are reproducible.
    compact_min_cancelled:
        Dead-entry floor below which the queue is never compacted
        (defaults to :attr:`COMPACT_MIN_CANCELLED`; tests override it to
        force or forbid compaction).
    """

    #: default floor on dead entries before a compaction can trigger —
    #: keeps tiny queues from churning through pointless rebuilds
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed=0, compact_min_cancelled=None):
        self._now = 0.0
        self._fifos = {}          # due time -> deque of [callback, args]
        self._times = []          # heap of the keys of _fifos
        self._cancelled = 0       # dead entries still sitting in a FIFO
        self._scheduled = 0       # see heap_size
        self._kills = 0           # cancels that killed a queued entry
        self._compact_min = (self.COMPACT_MIN_CANCELLED
                             if compact_min_cancelled is None
                             else compact_min_cancelled)
        self.rng = random.Random(seed)
        #: the machine's id streams: packet uids (stamped as a packet
        #: enters the fabric), default store values and router-control
        #: keys.  They live here, not in their modules, so a run's ids
        #: depend on that run alone, never on what its process ran before
        self.packet_uids = itertools.count()
        self.store_tokens = itertools.count(1)
        self.ctrl_keys = itertools.count(1)
        #: executed (non-cancelled) events — the telemetry bench divides
        #: this by wall time for its events/sec throughput figure
        self.events_executed = 0
        #: queue rebuilds performed (compaction effectiveness telemetry)
        self.compactions = 0
        #: optional :class:`~repro.telemetry.profiler.SimProfiler`; the
        #: dispatch site below uses the §9 zero-cost guard idiom, so a
        #: detached run pays one identity test per event and is
        #: bit-identical to seed behaviour
        self.profiler = None

    @property
    def now(self):
        """Current simulation time in nanoseconds."""
        return self._now

    def schedule(self, delay, callback, *args):
        """Run ``callback(*args)`` after ``delay`` ns; returns a handle
        for :meth:`cancel`."""
        if not delay >= 0.0:      # also rejects NaN
            raise ValueError("cannot schedule in the past (delay=%r)" % delay)
        time = self._now + delay
        entry = [callback, args]
        fifo = self._fifos.get(time)
        if fifo is None:
            self._fifos[time] = fifo = deque()
            heappush(self._times, time)
        fifo.append(entry)
        self._scheduled += 1
        return entry

    def schedule_at(self, time, callback, *args):
        """Run ``callback(*args)`` at absolute time ``time``.

        Accumulated float error can make ``time - now`` come out a hair
        negative for a caller that computed ``time`` from ``now`` by a
        chain of additions; such epsilon-negative delays are clamped to
        zero rather than rejected.  Genuinely past times still raise.
        """
        delay = time - self._now
        if delay < 0.0 and -delay <= 1e-9 + 1e-12 * self._now:
            delay = 0.0
        return self.schedule(delay, callback, *args)

    def cancel(self, handle):
        """Prevent a scheduled call from running when its time arrives.

        Idempotent, and a no-op on a call that already ran (the loop
        empties the entry it takes), so wakers and their cancellers can
        race without skewing the dead-entry count that drives compaction.
        """
        if handle[0] is None:
            return
        handle[0] = None
        self._kills += 1
        self._cancelled = cancelled = self._cancelled + 1
        if cancelled >= self._compact_min and cancelled * 2 > self.heap_size:
            self._compact()

    def spawn(self, generator, name=None):
        """Create a :class:`Process` driving ``generator``; starts at now."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def _loop(self, until=None, predicate=None, limit=None, once=False):
        """The event loop: take the next live entry, advance the clock,
        dispatch.  :meth:`step`, :meth:`run` and :meth:`run_until` are
        this one body with different stop conditions.

        Returns True when stopped by ``once`` or a true ``predicate``,
        False when the queue drained or its next live event lies past
        ``until`` (that event stays queued).  Only leaving the current
        instant consults the heap and ``until``; once the held ``fifo``
        is empty the heap is re-read, as compaction may have unkeyed it.
        """
        fifos = self._fifos
        times = self._times
        fifo = None
        while True:
            if predicate is not None:
                if predicate():
                    return True
                if limit is not None and self._now > limit:
                    raise TimeoutError(
                        "run_until exceeded limit of %r ns" % limit)
            while fifo:
                entry = fifo.popleft()
                if entry[0] is not None:
                    break
                self._cancelled -= 1
            else:
                # The held FIFO is spent (or none is held): drop spent
                # FIFOs and dead heads *before* the ``until`` test, then
                # advance the clock to the first live entry's time.
                while times:
                    time = times[0]
                    fifo = fifos[time]
                    while fifo and fifo[0][0] is None:
                        fifo.popleft()
                        self._cancelled -= 1
                    if fifo:
                        break
                    del fifos[heappop(times)]
                else:
                    return False
                if until is not None and time > until:
                    return False
                self._now = time
                entry = fifo.popleft()
            callback, args = entry
            entry[0] = None       # consumed: a later cancel is a no-op
            self.events_executed += 1
            prof = self.profiler
            if prof is not None:
                prof.dispatch(callback, args)
            else:
                callback(*args)
            if once:
                return True

    def step(self):
        """Execute the next pending event.  Returns False if none remain."""
        return self._loop(once=True)

    def run(self, until=None):
        """Run until the queue is empty or the clock passes ``until``."""
        self._loop(until=until)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until(self, predicate, limit=None):
        """Run until ``predicate()`` is true.

        The predicate is evaluated before the first event and after every
        executed one; ``limit`` (ns) bounds the run to guard against
        livelock in tests.
        """
        if not self._loop(predicate=predicate, limit=limit):
            raise RuntimeError(
                "event heap drained before predicate became true")
        return self._now

    # -- lazy-deletion bookkeeping -----------------------------------------

    def _compact(self):
        """Drop every dead entry, and every due time left without a live
        one.  FIFOs are filtered in place (the loop may hold one) and keep
        their order, so compaction is invisible to the simulation."""
        fifos = self._fifos
        for time, fifo in list(fifos.items()):
            live = [entry for entry in fifo if entry[0] is not None]
            if len(live) != len(fifo):
                fifo.clear()
                fifo.extend(live)
            if not live:
                del fifos[time]
        self._times[:] = fifos
        heapify(self._times)
        self._cancelled = 0
        self.compactions += 1

    @property
    def pending_events(self):
        """Number of live (non-cancelled) scheduled events."""
        return self.heap_size - self._cancelled

    @property
    def heap_size(self):
        """Queued entries, including not-yet-reclaimed cancelled ones:
        every scheduled entry ran, was reclaimed dead, or is queued."""
        return (self._scheduled - self.events_executed - self._kills
                + self._cancelled)
