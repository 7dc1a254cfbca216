"""L2 cache model.

Capacity is tracked in lines; replacement is LRU.  A dirty (EXCLUSIVE)
eviction produces a writeback that carries the only valid copy of the line —
this is the efficiency choice the paper calls out as a fault-containment
hazard (§3.2: a lost writeback makes the line incoherent).

The cache-flush operation used by recovery phase P4 (§4.5) walks every line:
dirty lines are written back to their homes, clean lines are simply dropped,
leaving the cache empty.
"""

from collections import OrderedDict

from repro.common.types import CacheState


class CacheLine:
    __slots__ = ("state", "value")

    def __init__(self, state, value):
        self.state = state
        self.value = value

    def __repr__(self):
        return "<CacheLine %s %r>" % (self.state.value, self.value)


class Cache:
    """Fully associative LRU cache of coherence lines."""

    def __init__(self, node_id, capacity_lines):
        self.node_id = node_id
        self.capacity_lines = capacity_lines
        self._lines = OrderedDict()    # line_address -> CacheLine (LRU order)
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._lines)

    def lookup(self, line_address, for_write=False):
        """Return the line if the access hits, else None.

        A write to a SHARED line is a miss (needs exclusivity).
        """
        line = self._lines.get(line_address)
        if line is None:
            self.misses += 1
            return None
        if for_write and line.state != CacheState.EXCLUSIVE:
            self.misses += 1
            return None
        self._lines.move_to_end(line_address)
        self.hits += 1
        return line

    def contains(self, line_address):
        return line_address in self._lines

    def state_of(self, line_address):
        line = self._lines.get(line_address)
        return line.state if line else CacheState.INVALID

    def fill(self, line_address, value, state):
        """Insert a line; returns an eviction victim (address, line) or None."""
        victim = None
        if (line_address not in self._lines
                and len(self._lines) >= self.capacity_lines):
            victim = self._lines.popitem(last=False)   # LRU
        self._lines[line_address] = CacheLine(state, value)
        self._lines.move_to_end(line_address)
        return victim

    def write(self, line_address, value):
        """Perform a store to a line held EXCLUSIVE."""
        line = self._lines[line_address]
        if line.state != CacheState.EXCLUSIVE:
            raise RuntimeError(
                "store to non-exclusive line 0x%x on node %d"
                % (line_address, self.node_id))
        line.value = value

    def invalidate(self, line_address):
        """Drop a line (invalidation); returns its value if it was dirty."""
        line = self._lines.pop(line_address, None)
        if line is not None and line.state == CacheState.EXCLUSIVE:
            return line.value
        return None

    def downgrade(self, line_address):
        """EXCLUSIVE -> SHARED (on a forwarded GET); returns the value."""
        line = self._lines.get(line_address)
        if line is None:
            return None
        line.state = CacheState.SHARED
        return line.value

    def flush_all(self):
        """Empty the cache; returns [(address, value)] for the dirty lines."""
        dirty = [(address, line.value)
                 for address, line in self._lines.items()
                 if line.state == CacheState.EXCLUSIVE]
        self._lines.clear()
        return dirty

    def drop_all(self):
        """Lose all contents without writebacks (node failure)."""
        self._lines.clear()
