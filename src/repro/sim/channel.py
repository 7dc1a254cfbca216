"""Unbounded FIFO message channel with blocking ``get``.

Capacity limits in the interconnect model are enforced by the *senders*
(credit-based flow control), so the channel itself never blocks a put.  The
channel also exposes :meth:`Channel.watch`, a one-shot "next put" event for
consumers that multiplex over several channels (MAGIC's main loop and the
recovery communicator), and :meth:`Channel.abandon`, which takes back a
watch whose waiter woke on another channel.
"""

from collections import deque

from repro.sim.process import Event


class _AbandonedWatch:
    """Stands in for every watch :meth:`Channel.abandon` took back from
    one channel.  A put triggers it once per slot it holds, scheduling the
    zero-delay wake the watch would have had to the first abandoned
    waiter, which woke elsewhere and so resumes nobody: each put schedules
    what it did before the watches were taken back."""

    __slots__ = ("sim", "wake")

    triggered = False

    def __init__(self, sim, wake):
        self.sim = sim
        self.wake = wake

    def trigger(self, value):
        self.sim.schedule(0.0, self.wake, value)


class Channel:
    """FIFO of messages between processes."""

    def __init__(self, sim, name=None):
        self.sim = sim
        self.name = name or "channel"
        self._get_name = self.name + ".get"
        self._watch_name = self.name + ".watch"
        self._items = deque()
        self._getters = deque()
        self._watchers = []
        self._abandoned = None

    def put(self, item):
        """Append ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            event = self._getters.popleft()
            event.trigger(item)
        else:
            self._items.append(item)
        watchers = self._watchers
        if watchers:
            # Snapshot-swap delivery: every current watcher is one-shot
            # and about to fire (or already fired elsewhere), so detach
            # the whole batch first.  A watcher re-registering during
            # delivery appends to the fresh list — never dropped, never
            # double-fired — and a put with no watchers costs nothing.
            self._watchers = []
            for watcher in watchers:
                if not watcher.triggered:
                    watcher.trigger(self)

    def get(self):
        """Return an event that fires with the next item (FIFO order)."""
        event = Event(self.sim, name=self._get_name)
        if self._items:
            event.trigger(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self):
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def watch(self):
        """Return an event that fires on the next put (without consuming)."""
        event = Event(self.sim, name=self._watch_name)
        self._watchers.append(event)
        return event

    def abandon(self, event):
        """Take back ``event``, a :meth:`watch` whose one waiter woke on
        something else (the losing slot of an ``AnyOf``), so that the
        watch and its waiter chain do not live until the next put, which
        on an idle channel may never come.  Only an unfired watch that is
        still the newest is swapped for the placeholder."""
        watchers = self._watchers
        if watchers and watchers[-1] is event and not event.triggered:
            abandoned = self._abandoned
            if abandoned is None:
                (wake,) = event._waiters
                abandoned = self._abandoned = _AbandonedWatch(self.sim, wake)
            watchers[-1] = abandoned

    def clear(self):
        """Drop all queued items (used when a component fails)."""
        dropped = list(self._items)
        self._items.clear()
        return dropped

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return True

    def __repr__(self):
        return "<Channel %s depth=%d>" % (self.name, len(self._items))
