"""Directory state stored at each line's home node.

Entries are created lazily: an absent entry means the line is UNOWNED with a
valid memory copy (the reset state).  The ``memory_valid`` flag is the key
piece of recovery bookkeeping: it is cleared when the line is handed out
exclusive and set again only when the data returns (writeback or sharing
writeback).  After the recovery cache-flush, any entry whose memory copy is
still invalid has lost its only valid copy and is marked incoherent
(paper §4.5).
"""

from repro.common.types import DirState


class DirectoryEntry:
    """Directory state for a single line at its home."""

    __slots__ = (
        "state", "sharers", "owner", "memory_valid",
        "pending_kind", "pending_requester", "awaiting_acks",
        "awaiting_put",
    )

    def __init__(self):
        self.state = DirState.UNOWNED
        self.sharers = set()
        self.owner = None
        self.memory_valid = True
        # transaction-in-progress bookkeeping (state == LOCKED)
        self.pending_kind = None        # MessageKind of the locked request
        self.pending_requester = None
        self.awaiting_acks = 0
        self.awaiting_put = False       # FWD missed; a writeback is racing

    def lock(self, kind, requester):
        self.state = DirState.LOCKED
        self.pending_kind = kind
        self.pending_requester = requester

    def unlock(self, new_state):
        self.state = new_state
        self.pending_kind = None
        self.pending_requester = None
        self.awaiting_acks = 0
        self.awaiting_put = False

    def __repr__(self):
        return ("<DirEntry %s sharers=%s owner=%s mem_valid=%s>"
                % (self.state.value, sorted(self.sharers), self.owner,
                   self.memory_valid))


class Directory:
    """Lazily populated directory for all lines homed at one node."""

    def __init__(self, node_id, base_address, size_bytes, line_size):
        self.node_id = node_id
        self.base_address = base_address
        self.size_bytes = size_bytes
        self.line_size = line_size
        self._entries = {}

    def owns(self, line_address):
        return (self.base_address <= line_address
                < self.base_address + self.size_bytes)

    def entry(self, line_address):
        """Get (creating if needed) the entry for a line homed here."""
        if not self.owns(line_address):
            raise KeyError(
                "line 0x%x not homed at node %d" % (line_address, self.node_id))
        entry = self._entries.get(line_address)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[line_address] = entry
        return entry

    def peek(self, line_address):
        """Entry if it exists (no creation), else None (== reset state)."""
        return self._entries.get(line_address)

    def touched_lines(self):
        """Line addresses with explicit (non-reset) entries."""
        return list(self._entries.keys())

    @property
    def total_lines(self):
        """Number of lines homed at this node (for scan-cost accounting)."""
        return self.size_bytes // self.line_size
