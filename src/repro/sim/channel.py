"""Unbounded FIFO message channel with blocking ``get``.

Capacity limits in the interconnect model are enforced by the *senders*
(credit-based flow control), so the channel itself never blocks a put.  A
consumer that is not a process sets :attr:`Channel.on_put`, called on every
put (MAGIC's dispatch wakes from it); a process that waits on several
channels at once (the recovery communicator) takes a one-shot "next put"
event from :meth:`Channel.watch`.
"""

from collections import deque

from repro.sim.process import Event


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
        #: optional ``on_put()``, called on every put once the item is
        #: queued and before any watch fires
        self.on_put = None

    def put(self, item):
        """Append ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            event = self._getters.popleft()
            event.trigger(item)
        else:
            self._items.append(item)
        on_put = self.on_put
        if on_put is not None:
            on_put()
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
