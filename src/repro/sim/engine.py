"""The simulator core: a time-ordered event heap and a virtual clock.

Times are floats in nanoseconds.  Determinism is guaranteed by breaking time
ties with a monotonically increasing sequence number, and by routing all
randomness through the simulator-owned :class:`random.Random` instance.

Cancellation uses *lazy deletion with amortized compaction*: a cancelled
entry stays in the heap (removal from the middle of a binary heap is
O(n)), but the simulator counts dead entries and rebuilds the heap once
they outnumber the live ones.  The rebuild is O(live + dead) and is paid
at most once per O(heap) cancellations, so cancels stay amortized O(1)
while the heap the hot ``heappush``/``heappop`` path sees stays within 2x
of the live event count.  This matters because the MAGIC model arms a
long-deadline timeout for *every* outstanding memory operation and
cancels it a few hundred simulated nanoseconds later — without
compaction the heap is dominated by dead timers.

Compaction preserves event order exactly: entries are totally ordered by
``(time, seq)`` and ``heapify`` over any subset replays them identically,
so runs are bit-identical with compaction on or off (the determinism
directed test in ``tests/test_sim_kernel.py`` asserts this).
"""

import itertools
import random
from heapq import heapify, heappop, heappush


class ScheduledCall:
    """Handle for a scheduled callback; allows cancellation."""

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(self, sim, time, callback, args):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self):
        """Prevent the callback from running when its time arrives.

        Idempotent, and a no-op on a call that already ran (the engine
        marks consumed entries), so wakers and their cancellers can race
        without skewing the simulator's dead-entry accounting.  The
        compaction trigger is inlined here because MAGIC cancels several
        watchdogs per completed memory op — this is a hot path.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        sim._cancelled = cancelled = sim._cancelled + 1
        if cancelled >= sim._compact_min and cancelled * 2 > len(sim._heap):
            sim._compact()


class Simulator:
    """Event-driven simulator with a nanosecond-resolution virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned RNG.  All stochastic model decisions
        must draw from :attr:`rng` so that runs are reproducible.
    compact_min_cancelled:
        Dead-entry floor below which the heap is never compacted
        (defaults to :attr:`COMPACT_MIN_CANCELLED`; tests override it to
        force or forbid compaction).
    """

    #: default floor on dead entries before a compaction can trigger —
    #: keeps tiny heaps from churning through pointless rebuilds
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed=0, compact_min_cancelled=None):
        self._now = 0.0
        self._heap = []
        self._cancelled = 0       # dead entries still sitting in the heap
        self._compact_min = (self.COMPACT_MIN_CANCELLED
                             if compact_min_cancelled is None
                             else compact_min_cancelled)
        self._seq = itertools.count()
        self.rng = random.Random(seed)
        #: executed (non-cancelled) events — the telemetry bench divides
        #: this by wall time for its events/sec throughput figure
        self.events_executed = 0
        #: heap rebuilds performed (compaction effectiveness telemetry)
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
        """Run ``callback(*args)`` after ``delay`` ns; returns a handle."""
        if delay < 0:
            raise ValueError("cannot schedule in the past (delay=%r)" % delay)
        call = ScheduledCall(self, self._now + delay, callback, args)
        heappush(self._heap, (call.time, next(self._seq), call))
        return call

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

    def spawn(self, generator, name=None):
        """Create a :class:`Process` driving ``generator``; starts at now."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def _loop(self, until=None, predicate=None, limit=None, once=False):
        """The event loop: pop, skip dead entries, advance the clock,
        dispatch.  :meth:`step`, :meth:`run` and :meth:`run_until` are
        this one body with different stop conditions.

        Returns True when stopped by ``once`` or a true ``predicate``,
        False when the heap drained or its next live event lies past
        ``until`` (that event stays in the heap).  The alias ``heap``
        stays valid across callbacks because :meth:`_compact` rebuilds
        the list in place.
        """
        heap = self._heap
        while True:
            if predicate is not None:
                if predicate():
                    return True
                if limit is not None and self._now > limit:
                    raise TimeoutError(
                        "run_until exceeded limit of %r ns" % limit)
            while heap and heap[0][2].cancelled:
                heappop(heap)
                self._cancelled -= 1
            if not heap or (until is not None and heap[0][0] > until):
                return False
            time, _seq, call = heappop(heap)
            # Mark the entry consumed so a later cancel() (the common
            # case: a process cancelling the very timeout that woke it)
            # is a no-op instead of a dead-entry miscount.
            call.cancelled = True
            self._now = time
            self.events_executed += 1
            prof = self.profiler
            if prof is not None:
                prof.dispatch(call.callback, call.args)
            else:
                call.callback(*call.args)
            if once:
                return True

    def step(self):
        """Execute the next pending event.  Returns False if none remain."""
        return self._loop(once=True)

    def run(self, until=None):
        """Run until the heap is empty or the clock passes ``until``."""
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
        """Rebuild the heap without its dead entries.

        ``heapify`` over ``(time, seq, call)`` tuples reproduces exactly
        the pop order of the unfiltered heap minus the dead entries, so
        compaction is invisible to the simulation.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    @property
    def pending_events(self):
        """Number of live (non-cancelled) scheduled events."""
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self):
        """Raw heap length including not-yet-reclaimed cancelled entries."""
        return len(self._heap)
