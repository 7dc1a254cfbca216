"""Generator-based processes and the waitables they can yield.

A process generator may yield:

* a number — sleep that many nanoseconds;
* an :class:`Event` — resume when it triggers (with the event's value);
* another :class:`Process` — resume when it terminates;
* an :class:`AnyOf` — resume on the first of several events;
* a channel ``get()`` (which is an :class:`Event` under the hood).

``Process.interrupt(cause)`` throws :class:`Interrupt` into the generator at
the current simulation time, cancelling whatever it was waiting for.  This is
the simulation analog of the forced bus parity error / Cache Error exception
MAGIC uses to pull the R10000 out of normal execution (paper §4.2).

The single-waitable lanes (sleep, one event, one process join) are the
simulator's hot path, so everything they allocate per wait is a
``__slots__`` class — no closure cells, no per-wait dicts.  The
composite wait (:class:`AnyOf`) is comparatively rare and shares the
same slotted machinery via per-index adapter callbacks.
"""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot level-triggered event carrying an optional value."""

    __slots__ = ("sim", "name", "triggered", "value", "_waiters")

    def __init__(self, sim, name=None):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value = None
        self._waiters = []

    def trigger(self, value=None):
        """Fire the event, resuming all waiters at the current time."""
        if self.triggered:
            raise RuntimeError("event %r triggered twice" % (self.name,))
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.sim.schedule(0.0, callback, value)

    def subscribe(self, callback):
        """Invoke ``callback(value)`` once the event fires."""
        if self.triggered:
            self.sim.schedule(0.0, callback, self.value)
        else:
            self._waiters.append(callback)

    def unsubscribe(self, callback):
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass


def poke(event, value=None):
    """Timer callback for a bounded wait: trigger ``event`` with ``value``
    unless the awaited outcome already has."""
    if not event.triggered:
        event.trigger(value)


class AnyOf:
    """Wait for the first event in a collection; value is (index, value)."""

    __slots__ = ("events",)

    def __init__(self, events):
        self.events = list(events)


class _Waiter:
    """One-shot resume callback for a single event/process-join wait.

    Knows its event so :meth:`detach` can unsubscribe without the process
    carrying a closure around; ``live`` goes False on detach so a resume
    already scheduled by ``Event.trigger`` becomes a no-op (the interrupt
    vs. event-resume race in :meth:`Process._step`).  A normal resume
    clears the process's ``_pending_wait`` itself: the event has fired
    and dropped its waiter list, so there is nothing to unsubscribe.
    """

    __slots__ = ("process", "event", "live")

    def __init__(self, process, event):
        self.process = process
        self.event = event
        self.live = True

    def __call__(self, value):
        process = self.process
        if self.live and process.alive:
            self.live = False
            process._pending_wait = None
            process._step(value, None)

    def detach(self):
        self.live = False
        self.event.unsubscribe(self)


class _AnyOfWait:
    """First-wins latch for an :class:`AnyOf`."""

    __slots__ = ("process", "live")

    def __init__(self, process):
        self.process = process
        self.live = True

    def fire(self, index, value):
        if self.live and self.process.alive:
            self.live = False
            self.process._step((index, value), None)

    def detach(self):
        self.live = False


class _IndexedCallback:
    """Adapter subscribing one :class:`AnyOf` slot to one event."""

    __slots__ = ("wait", "index")

    def __init__(self, wait, index):
        self.wait = wait
        self.index = index

    def __call__(self, value):
        self.wait.fire(self.index, value)


class Process:
    """Drives a generator, resuming it as its yielded waits complete."""

    __slots__ = ("sim", "generator", "name", "alive", "result", "exception",
                 "exit_event", "_pending_timeout", "_pending_wait",
                 "_executing", "_kill_requested")

    def __init__(self, sim, generator, name=None):
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True
        self.result = None
        self.exception = None
        self.exit_event = Event(sim, name="%s.exit" % self.name)
        self._pending_timeout = None       # Simulator.schedule handle
        self._pending_wait = None          # object with .detach()
        self._executing = False            # generator currently running
        self._kill_requested = False       # self-kill during execution
        sim.schedule(0.0, self._step, None, None)

    # -- wait plumbing -----------------------------------------------------

    def _step(self, send_value, throw_exc):
        if not self.alive:
            return
        # Invalidate any wait that is still armed: when an interrupt races
        # with an already-scheduled event resume, the loser must become a
        # no-op rather than resume the generator at the wrong yield point.
        self._cancel_pending_wait()
        self._executing = True
        try:
            if throw_exc is not None:
                yielded = self.generator.throw(throw_exc)
            else:
                yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except Interrupt as exc:
            # Generator chose not to handle the interrupt: terminate quietly.
            self._finish(exception=exc, raise_unhandled=False)
            return
        except Exception as exc:  # repro-lint: disable=broad-except —
            # not swallowed: the exception is re-raised by _finish so a
            # crashed model surfaces as a test bug.
            self._finish(exception=exc, raise_unhandled=True)
            return
        finally:
            self._executing = False
        if self._kill_requested:
            # The process was killed from within its own execution (e.g. a
            # handler tearing down its own service): finish now that the
            # generator has yielded control.
            self.generator.close()
            self._finish(result=None)
            return
        self._arm(yielded)

    def _arm(self, yielded):
        if isinstance(yielded, (int, float)):
            self._pending_timeout = self.sim.schedule(
                float(yielded), self._step, None, None)
        elif isinstance(yielded, Event):
            waiter = _Waiter(self, yielded)
            yielded.subscribe(waiter)
            self._pending_wait = waiter
        elif isinstance(yielded, Process):
            waiter = _Waiter(self, yielded.exit_event)
            yielded.exit_event.subscribe(waiter)
            self._pending_wait = waiter
        elif isinstance(yielded, AnyOf):
            self._arm_any_of(yielded)
        else:
            raise TypeError(
                "process %s yielded unsupported %r" % (self.name, yielded))

    def _arm_any_of(self, any_of):
        wait = _AnyOfWait(self)
        for index, event in enumerate(any_of.events):
            event.subscribe(_IndexedCallback(wait, index))
        self._pending_wait = wait

    def _cancel_pending_wait(self):
        timeout = self._pending_timeout
        if timeout is not None:
            self.sim.cancel(timeout)
            self._pending_timeout = None
        wait = self._pending_wait
        if wait is not None:
            wait.detach()
            self._pending_wait = None

    def _finish(self, result=None, exception=None, raise_unhandled=False):
        self.alive = False
        self.result = result
        self.exception = exception
        self._cancel_pending_wait()
        self.exit_event.trigger(result)
        if raise_unhandled and exception is not None:
            raise exception

    # -- public API ----------------------------------------------------------

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the generator at the current time."""
        if not self.alive:
            return
        self._cancel_pending_wait()
        self.sim.schedule(0.0, self._step, None, Interrupt(cause))

    def kill(self):
        """Terminate the process without running any more of its code.

        Safe to call from within the process itself: termination is then
        deferred until the generator yields control back to the kernel.
        """
        if not self.alive:
            return
        if self._executing:
            self._kill_requested = True
            return
        self._cancel_pending_wait()
        self.generator.close()
        self._finish(result=None)

    def __repr__(self):
        state = "alive" if self.alive else "dead"
        return "<Process %s (%s)>" % (self.name, state)


def all_finished(processes):
    """Predicate for ``run_until``: true once every process has terminated.

    Evaluated after every event, so it must not rescan: dead processes
    are popped off the tail of a private list (dead stays dead) and a
    call costs one liveness test while anything is still running.
    """
    waiting = list(processes)

    def finished():
        while waiting and not waiting[-1].alive:
            waiting.pop()
        return not waiting

    return finished
