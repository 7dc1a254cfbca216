"""Abstract single-line protocol model: the live handlers on a stand-in MAGIC.

The machine models one cache line homed at node 0, with up to three
remote nodes, exactly the small-model shape of the paper's protocol
verification argument: every directory interaction is per-line, so a
single line with a handful of remotes exercises every transition.

A configuration is immutable (hashable) and holds:

* the directory entry for the line — state, owner, sharer vector,
  ``memory_valid``, and the lock bookkeeping (``pending_kind``,
  ``pending_requester``, ``awaiting_acks``, ``awaiting_put``);
* each remote's cache state for the line (``I``/``S``/``E``);
* each remote's outstanding request (None/``GET``/``GETX``);
* the network: per ``(src, dst)`` FIFO queues of in-flight messages.
  Per-pair FIFO matches the simulator's lane-ordered point-to-point
  delivery; fully unordered delivery would manufacture reorderings
  (e.g. an INVAL overtaking the DATA_SHARED it chases) that the
  interconnect cannot produce.

:class:`StandInMagic` executes one delivery by calling the handler the
simulator runs — ``coherence/protocol.py``'s ``_HANDLERS`` entry, on a
``ProtocolEngine`` — against a stand-in for the node controller: a
one-entry directory loaded from the configuration, a cache over the
delivering node's ``I``/``S``/``E`` letter, a ``send_message`` that
captures what the handler sends, the scenario's firewall policy and
``firmware_assert`` events.  There is no second copy of the protocol:
what the explorer checks is what the simulator executes.

Model assumptions (documented deviations from the concrete machine):

* every node has a cache (only the remote-side handlers consult it);
* failure units are singletons, so ``requester in failure_unit``
  means ``requester == node``;
* the modeled line is ordinary memory (never in the MAGIC region) and
  never I/O — the uncached kinds are delivered once each by the checker
  instead of being explored statefully;
* the firewall ACL is scenario policy: open in fault-free scenarios,
  deny-failed-cell in fault scenarios (paper §4.1: recovery closes the
  firewall against dead cells).
"""

from repro.coherence import protocol as shipped_protocol
from repro.coherence.directory import DirectoryEntry
from repro.coherence.messages import MessageKind
from repro.common.params import TimingParams
from repro.common.types import CacheState, DirState
from repro.node.iodevice import IODevice
from repro.node.magic import MagicStats, NullHooks
from repro.node.memory import AddressMap, NodeMemory

HOME = 0

#: message kinds the reply harness (magic's ``_handle_reply``) absorbs at
#: the requester instead of the protocol table.
REPLY_KINDS = frozenset({"DATA_SHARED", "DATA_EXCL", "NAK",
                         "BUS_ERROR_REPLY"})

#: write-grant kinds; sending one into a failed cell is a containment
#: escape (read replies to a failed requester are the firewall's
#: documented don't-care: the firewall of §4.1 is a *write* firewall).
GRANT_KINDS = frozenset({"DATA_EXCL"})

_MEM_PER_NODE = 64 * 1024

#: the opaque data token every cached copy and writeback carries
_VALUE = "data"

_CACHE_STATES = {"I": CacheState.INVALID, "S": CacheState.SHARED,
                 "E": CacheState.EXCLUSIVE}


class ModelError(Exception):
    """A delivery the model cannot execute: no handler, or no target."""


class Config(tuple):
    """Immutable machine configuration.

    Layout: ``(line, caches, outstanding, queues, spent)`` where ``line``
    is ``(state, owner, sharers, memory_valid, pending_kind,
    pending_requester, awaiting_acks, awaiting_put)``, ``caches`` and
    ``outstanding`` are per-node tuples, ``queues`` is a sorted tuple of
    ``((src, dst), (message, ...))`` with empty queues elided, and
    ``spent`` counts processor operations issued so far (the explorer's
    bounded-session budget).  A message is ``(kind, fields)`` with
    ``fields`` a sorted tuple of ``(name, value)`` pairs
    (``requester``/``home``).
    """

    __slots__ = ()

    @property
    def line(self):
        return self[0]

    @property
    def caches(self):
        return self[1]

    @property
    def outstanding(self):
        return self[2]

    @property
    def queues(self):
        return self[3]

    @property
    def spent(self):
        return self[4]

    @property
    def state(self):
        return self[0][0]

    def replace(self, line=None, caches=None, outstanding=None,
                queues=None, spent=None):
        return Config((
            self[0] if line is None else line,
            self[1] if caches is None else tuple(caches),
            self[2] if outstanding is None else tuple(outstanding),
            self[3] if queues is None else tuple(queues),
            self[4] if spent is None else spent,
        ))

    def describe(self):
        line = self.line
        bits = ["dir=%s" % line[0]]
        if line[1] is not None:
            bits.append("owner=%d" % line[1])
        if line[2]:
            bits.append("sharers={%s}" % ",".join(
                str(node) for node in sorted(line[2])))
        if line[0] == "LOCKED":
            bits.append("pending=%s@%s acks=%d%s"
                        % (line[4], line[5], line[6],
                           " await-put" if line[7] else ""))
        bits.append("caches=%s" % "".join(self.caches[1:]))
        for (src, dst), messages in self.queues:
            bits.append("%d->%d:[%s]" % (
                src, dst, ",".join(kind for kind, _ in messages)))
        return " ".join(bits)


def make_line(state="UNOWNED", owner=None, sharers=(), memory_valid=True,
              pending_kind=None, pending_requester=None, awaiting_acks=0,
              awaiting_put=False):
    return (state, owner, frozenset(sharers), memory_valid, pending_kind,
            pending_requester, awaiting_acks, awaiting_put)


def initial_config(num_nodes, line=None, caches=None, queues=()):
    """A starting configuration (defaults: idle UNOWNED line)."""
    return Config((
        line if line is not None else make_line(),
        tuple(caches) if caches is not None else ("I",) * num_nodes,
        (None,) * num_nodes,
        tuple(sorted(queues)),
        0,
    ))


def enqueue(queues, src, dst, message):
    """Functional append to the ``(src, dst)`` FIFO."""
    table = dict(queues)
    table[(src, dst)] = table.get((src, dst), ()) + (message,)
    return tuple(sorted(table.items()))


def dequeue(queues, src, dst):
    """Functional pop of the ``(src, dst)`` FIFO head."""
    table = dict(queues)
    head, rest = table[(src, dst)][0], table[(src, dst)][1:]
    if rest:
        table[(src, dst)] = rest
    else:
        del table[(src, dst)]
    return head, tuple(sorted(table.items()))


def message(kind, **fields):
    return (kind, tuple(sorted(fields.items())))


class Scenario:
    """Environment policy for one exploration run."""

    def __init__(self, name, num_nodes=4, failed=(), firewall_enabled=True,
                 deny_failed=False, check_drain=True, max_concurrent=2,
                 max_transactions=4):
        self.name = name
        self.num_nodes = num_nodes
        self.failed = frozenset(failed)
        self.firewall_enabled = firewall_enabled
        self.deny_failed = deny_failed
        self.check_drain = check_drain
        #: small-model bound: how many remotes may have a transaction
        #: (request, upgrade or writeback) in flight at once.  Two is
        #: enough to enumerate every pairwise race; three multiplies
        #: interleavings without adding new protocol decisions.
        self.max_concurrent = max_concurrent
        #: small-model bound: total processor operations (requests,
        #: upgrades, writebacks) per explored session.  Four covers every
        #: pairwise race on top of any two-op history — e.g. two GETs to
        #: build a sharer vector, then racing GETX upgrades — while
        #: cutting the unbounded NAK-retry cycles that otherwise blow
        #: the space past millions of states.  None means unbounded.
        self.max_transactions = max_transactions

    def live_remotes(self):
        return [node for node in range(1, self.num_nodes)
                if node not in self.failed]

    def firewall_allows(self, requester):
        if self.deny_failed:
            return requester not in self.failed
        return True


class Outcome:
    """Result of one delivery."""

    __slots__ = ("config", "sends", "events")

    def __init__(self, config, sends, events):
        self.config = config
        self.sends = sends        # [(dst, (kind, fields), payload)]
        self.events = events      # [(tag, detail)]


class _Packet:

    __slots__ = ("kind", "src", "payload")

    def __init__(self, kind, src, payload):
        self.kind = kind
        self.src = src
        self.payload = payload


class _Entry(DirectoryEntry):
    """The model line's directory entry; relocking a LOCKED line is an
    event (the new transaction would overwrite the pending one)."""

    __slots__ = ("events",)

    def lock(self, kind, requester):
        if self.state == DirState.LOCKED:
            self.events.append(("relock", "%s@%s" % (
                getattr(self.pending_kind, "name", None),
                self.pending_requester)))
        DirectoryEntry.lock(self, kind, requester)


class _Directory:
    """One entry, for the model line, homed at :data:`HOME`."""

    def __init__(self, magic):
        self.magic = magic
        self.current = None

    def owns(self, line_address):
        return self.magic.node_id == HOME and line_address == self.magic.line

    def entry(self, line_address):
        if not self.owns(line_address):
            raise KeyError("line 0x%x not homed at node %d"
                           % (line_address, self.magic.node_id))
        return self.current

    def peek(self, line_address):
        return self.current if self.owns(line_address) else None


class _Cache:
    """The delivering node's cache: its letter in the configuration."""

    def __init__(self, magic):
        self.magic = magic

    def state_of(self, line_address):
        magic = self.magic
        return _CACHE_STATES[magic.caches[magic.node_id]]

    def downgrade(self, line_address):
        magic = self.magic
        if magic.caches[magic.node_id] == "I":
            return None
        magic.caches[magic.node_id] = "S"
        return _VALUE

    def invalidate(self, line_address):
        magic = self.magic
        dirty = magic.caches[magic.node_id] == "E"
        magic.caches[magic.node_id] = "I"
        return _VALUE if dirty else None


class StandInMagic:
    """Just enough of :class:`~repro.node.magic.Magic` to run the handlers.

    ``handlers`` and ``engine_class`` default to the shipped
    ``_HANDLERS`` and ``ProtocolEngine``; tests pass a mutated module's.
    """

    def __init__(self, scenario, handlers=None, engine_class=None):
        self.scenario = scenario
        self.handlers = (shipped_protocol._HANDLERS if handlers is None
                         else handlers)
        self.params = TimingParams()
        self.address_map = AddressMap(scenario.num_nodes, _MEM_PER_NODE)
        #: the model line: the first general-purpose line homed at HOME
        self.line = self.address_map.usable_range(HOME)[0]
        self.firewall_enabled = scenario.firewall_enabled
        self.memory = NodeMemory(HOME, self.address_map)
        self.io_device = IODevice(HOME)
        self.directory = _Directory(self)
        self.cache = _Cache(self)
        self.stats = MagicStats()
        self.hooks = NullHooks()
        self.trace = None
        self._cause = None
        self._units = [frozenset({node})
                       for node in range(scenario.num_nodes)]
        # per-delivery state, loaded by run()
        self.node_id = HOME
        self.failure_unit = self._units[HOME]
        self.caches = None
        self.sends = None
        self.events = None
        self.engine = (engine_class or shipped_protocol.ProtocolEngine)(self)

    # ------------------------------------------------------- MAGIC surface

    def firewall_allows(self, page_address, writer_node):
        return self.scenario.firewall_allows(writer_node)

    def firmware_assert(self, condition, message):
        if not condition:
            self.events.append(("assert", message))
        return condition

    def send_message(self, dst, kind, payload, delay=0.0):
        if dst is None:
            raise ModelError("%s sent to no node" % kind.name)
        fields = tuple((key, payload[key]) for key in ("home", "requester")
                       if key in payload)
        self.sends.append((dst, (kind.name, fields), payload))

    # ------------------------------------------------------------ delivery

    def deliver(self, config, src, dst, msg):
        """Deliver a model message about the model line at ``dst``."""
        kind, fields = msg
        payload = {"line": self.line, "value": _VALUE}
        payload.update(fields)
        return self.run(config, src, dst, kind, payload)

    def run(self, config, src, dst, kind, payload):
        """Run ``kind``'s handler at ``dst``; returns an :class:`Outcome`.

        Raises :class:`ModelError` when the kind has no handler or the
        handler sends to no node; anything else the handler raises
        propagates to the caller.
        """
        member = MessageKind[kind]
        handler = self.handlers.get(member)
        if handler is None:
            raise ModelError("%s has no handler" % kind)
        self.node_id = dst
        self.failure_unit = self._units[dst]
        self.caches = list(config.caches)
        self.sends = []
        self.events = []
        entry = self.directory.current = _load_entry(config.line,
                                                     self.events)
        handler(self.engine, _Packet(member, src, payload))
        if entry.awaiting_acks < 0:
            self.events.append(("acks-underflow", ""))
        successor = config.replace(line=_freeze_entry(entry),
                                   caches=self.caches)
        return Outcome(successor, self.sends, self.events)


def _load_entry(line, events):
    entry = _Entry()
    entry.events = events
    entry.state = DirState[line[0]]
    entry.owner = line[1]
    entry.sharers = set(line[2])
    entry.memory_valid = line[3]
    entry.pending_kind = None if line[4] is None else MessageKind[line[4]]
    entry.pending_requester = line[5]
    entry.awaiting_acks = line[6]
    entry.awaiting_put = line[7]
    return entry


def _freeze_entry(entry):
    pending = entry.pending_kind
    return (entry.state.name, entry.owner, frozenset(entry.sharers),
            entry.memory_valid, None if pending is None else pending.name,
            entry.pending_requester, entry.awaiting_acks,
            entry.awaiting_put)
