"""Abstract single-line protocol machine driven by the extracted spec.

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

:class:`SpecMachine` executes one delivery: it finds the unique
transition path whose guards hold (executing binds and entry mutations
in extracted order, because e.g. ``INVAL_ACK`` decrements the ack count
*before* testing it), applies the writes, and returns the sends.  The
guard/step vocabulary is closed — anything outside it raises
:class:`ModelError`, which the checker reports as a model/extraction
gap rather than guessing semantics.

Model assumptions (documented deviations from the concrete machine):

* remotes always have caches (``has_cache`` is true off-home);
* failure units are singletons, so ``requester in failure_unit``
  means ``requester == node``;
* the modeled line is ordinary memory (never in the MAGIC region) and
  addresses are never I/O — the uncached and scrub kinds are validated
  statically by the checker instead of being explored statefully;
* the firewall ACL is scenario policy: open in fault-free scenarios,
  deny-failed-cell in fault scenarios (paper §4.1: recovery closes the
  firewall against dead cells).
"""

from repro.common.types import DirState

HOME = 0

#: message kinds the reply harness (magic's ``_handle_reply``) absorbs at
#: the requester instead of the protocol table.
REPLY_KINDS = frozenset({"DATA_SHARED", "DATA_EXCL", "NAK",
                         "BUS_ERROR_REPLY"})

#: write-grant kinds; sending one into a failed cell is a containment
#: escape (read replies to a failed requester are the firewall's
#: documented don't-care: the firewall of §4.1 is a *write* firewall).
GRANT_KINDS = frozenset({"DATA_EXCL"})

_CACHE_NAMES = {"EXCLUSIVE": "E", "SHARED": "S", "INVALID": "I"}


class ModelError(Exception):
    """The spec used vocabulary this model cannot execute."""


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
    """Result of one transition execution."""

    __slots__ = ("config", "sends", "events")

    def __init__(self, config, sends, events):
        self.config = config
        self.sends = sends        # [(dst, kind, fields-tuple)]
        self.events = events      # [(tag, detail)]


_DIR_STATES = frozenset(state.name for state in DirState)


def _may_states(atom):
    """Directory states where ``atom`` could evaluate true (sound
    over-approximation: atoms that are not purely a function of the
    directory state contribute the full set)."""
    if atom[0] == "state":
        name = atom[1].rsplit(".", 1)[-1]
        return frozenset({name}) if name in _DIR_STATES else _DIR_STATES
    if atom[0] == "not":
        return _DIR_STATES - _must_states(atom[1])
    if atom[0] == "and":
        combined = _DIR_STATES
        for part in atom[1]:
            combined &= _may_states(part)
        return combined
    if atom[0] == "or":
        combined = frozenset()
        for part in atom[1]:
            combined |= _may_states(part)
        return combined
    return _DIR_STATES


def _must_states(atom):
    """Directory states where ``atom`` is certainly true regardless of
    the rest of the configuration (sound under-approximation)."""
    if atom[0] == "state":
        name = atom[1].rsplit(".", 1)[-1]
        return frozenset({name}) if name in _DIR_STATES else frozenset()
    if atom[0] == "not":
        return _DIR_STATES - _may_states(atom[1])
    if atom[0] == "and":
        combined = _DIR_STATES
        for part in atom[1]:
            combined &= _must_states(part)
        return combined
    if atom[0] == "or":
        combined = frozenset()
        for part in atom[1]:
            combined |= _must_states(part)
        return combined
    return frozenset()


def _state_set(atom):
    """Directory states where ``atom`` holds, or None if the atom is not
    purely a function of the directory state."""
    may, must = _may_states(atom), _must_states(atom)
    return may if may == must else None


def _admissible_states(items):
    """Initial directory states a path can possibly match, judging by
    its state guards before the first state mutation (None = any)."""
    admissible = _DIR_STATES
    for item in items:
        if item[0] == "guard":
            atom = item[1] if item[2] else ["not", item[1]]
            admissible &= _may_states(atom)
        elif item[0] in ("lock", "unlock") or (
                item[0] == "write" and item[1] == "state"):
            break
    return None if admissible == _DIR_STATES else admissible


class SpecMachine:
    """Executes extracted transitions against configurations."""

    def __init__(self, spec):
        self.by_kind = {}
        for entry in spec.get("transitions", ()):
            self.by_kind.setdefault(entry["kind"], []).append(
                (entry, _admissible_states(entry["items"])))

    def deliver(self, config, src, dst, msg, scenario):
        """Run the handler for ``msg`` at ``dst``.

        Returns an :class:`Outcome`; raises :class:`ModelError` when no
        transition path (or more than one) matches — the paths come from
        if/else enumeration, so the match must be unique.
        """
        kind, fields = msg
        state = config.line[0]
        matched = []
        for transition, admissible in self.by_kind.get(kind, ()):
            if admissible is not None and state not in admissible:
                continue
            work = _Execution(config, dst, src, dict(fields), scenario)
            if work.run(transition["items"]):
                matched.append(work)
        if len(matched) != 1:
            raise ModelError(
                "%d transition path(s) of %s match at %s"
                % (len(matched), kind, config.describe()))
        work = matched[0]
        return Outcome(work.freeze(), work.sends, work.events)


class _Execution:
    """Mutable working copy of a configuration during one delivery."""

    def __init__(self, config, node, src, fields, scenario):
        line = config.line
        self.line = {
            "state": line[0], "owner": line[1], "sharers": set(line[2]),
            "memory_valid": line[3], "pending_kind": line[4],
            "pending_requester": line[5], "awaiting_acks": line[6],
            "awaiting_put": line[7],
        }
        self.caches = list(config.caches)
        self.outstanding = config.outstanding
        self.queues = config.queues
        self.spent = config.spent
        self.node = node
        self.src = src
        self.fields = fields
        self.scenario = scenario
        self.binds = {}
        self.locals = {}
        self.cache_value = None
        self.sends = []
        self.events = []

    # ------------------------------------------------------------- driving

    def run(self, items):
        """Apply items in order; False when a guard does not hold."""
        for item in items:
            if item[0] == "guard":
                if self.eval_atom(item[1]) != item[2]:
                    return False
            else:
                self.apply(item)
        return True

    def freeze(self):
        line = self.line
        return Config((
            (line["state"], line["owner"], frozenset(line["sharers"]),
             line["memory_valid"], line["pending_kind"],
             line["pending_requester"], line["awaiting_acks"],
             line["awaiting_put"]),
            tuple(self.caches),
            self.outstanding,
            self.queues,
            self.spent,
        ))

    # --------------------------------------------------------------- atoms

    def eval_atom(self, atom):
        tag = atom[0]
        if tag == "and":
            return all(self.eval_atom(part) for part in atom[1])
        if tag == "or":
            return any(self.eval_atom(part) for part in atom[1])
        if tag == "not":
            return not self.eval_atom(atom[1])
        if tag == "state":
            return self.line["state"] == atom[1]
        if tag == "pending_kind":
            return self.line["pending_kind"] == atom[1]
        if tag == "owner_is":
            return self.line["owner"] == self.resolve(atom[1])
        if tag == "entry_missing":
            # The model always materializes the entry; a missing entry
            # is indistinguishable from its reset (UNOWNED) state, and
            # every extracted use disjoins this with a state test.
            return False
        if tag == "acks_remaining":
            return self.line["awaiting_acks"] > 0
        if tag == "entry_flag":
            return bool(self.line[atom[1]])
        if tag == "bind_truthy":
            return bool(self.binds[atom[1]])
        if tag == "bind_is":
            return self.binds[atom[1]] == atom[2].split(".", 1)[1]
        if tag == "firewall_enabled":
            return self.scenario.firewall_enabled
        if tag == "in_failure_unit":
            return self.resolve(atom[1]) == self.node
        if tag == "is_home":
            return self.resolve(atom[1]) == self.node
        if tag == "firewall_allows":
            return self.scenario.firewall_allows(self.fields["requester"])
        if tag == "magic_region":
            return False        # the modeled line is ordinary memory
        if tag == "owns":
            return self.node == HOME
        if tag == "fw_assert":
            value = self.eval_atom(atom[1])
            if not value:
                self.events.append(("assert", repr(atom[1])))
            return value
        if tag == "has_cache":
            return self.node != HOME
        if tag == "cache_miss":
            return self.cache_value is None
        if tag == "cache_state":
            return (self.caches[self.node]
                    == _CACHE_NAMES.get(atom[1], atom[1]))
        raise ModelError("unknown guard atom %r" % (atom,))

    # --------------------------------------------------------------- steps

    def apply(self, item):
        tag = item[0]
        if tag == "bind":
            self.binds[item[1]] = self._bind_source(item[2])
        elif tag == "write":
            self._write(item[1], item[2])
        elif tag == "sharers_add":
            self.line["sharers"].add(self.resolve(item[1]))
        elif tag == "acks_dec":
            self.line["awaiting_acks"] -= 1
            if self.line["awaiting_acks"] < 0:
                self.events.append(("acks-underflow", ""))
        elif tag == "lock":
            if self.line["state"] == "LOCKED":
                # The new transaction overwrites the pending one.
                self.events.append(("relock", "%s@%s" % (
                    self.line["pending_kind"],
                    self.line["pending_requester"])))
            self.line["state"] = "LOCKED"
            self.line["pending_kind"] = item[1]
            self.line["pending_requester"] = self.resolve(item[2])
        elif tag == "unlock":
            self.line["state"] = item[1]
            self.line["pending_kind"] = None
            self.line["pending_requester"] = None
            self.line["awaiting_acks"] = 0
            self.line["awaiting_put"] = False
        elif tag == "send":
            self._send(item[1], item[2], item[3])
        elif tag == "fanout":
            self._fanout(item[1], item[2], item[3])
        elif tag == "cache":
            self._cache_op(item[1])
        elif tag in ("mem_write", "stat", "hook", "io", "scrub"):
            pass
        elif tag == "stray":
            self.events.append(("stray", item[1]))
        elif tag == "assert":
            if not self.eval_atom(item[1]):
                self.events.append(("assert", repr(item[1])))
        else:
            raise ModelError("unknown step %r" % (item,))

    def _bind_source(self, source):
        if source == "entry.owner":
            return self.line["owner"]
        if source == "entry.pending_requester":
            return self.line["pending_requester"]
        if source == "entry.pending_kind":
            return self.line["pending_kind"]
        if source == "other_sharers":
            return frozenset(self.line["sharers"]
                             - {self.fields["requester"]})
        raise ModelError("unknown bind source %r" % source)

    def _write(self, field, value):
        if field == "state":
            name = value.split(".", 1)[1] if "." in value else value
            self.line["state"] = name
        elif field == "sharers":
            self.line["sharers"] = set(self._set_value(value))
        elif field in ("owner", "pending_requester"):
            self.line[field] = self.resolve(value)
        elif field in ("memory_valid", "awaiting_put"):
            self.line[field] = self.resolve(value)
        elif field == "awaiting_acks":
            self.line[field] = self.resolve(value)
        else:
            raise ModelError("write to unknown field %r" % field)

    def _set_value(self, value):
        if value == "{}":
            return frozenset()
        if value.startswith("{") and value.endswith("}"):
            return frozenset(self.resolve(part.strip())
                             for part in value[1:-1].split(","))
        raise ModelError("unknown set value %r" % value)

    def _send(self, dst, kind, payload):
        target = self.resolve(dst)
        if target is None:
            raise ModelError("%s sent to no node (%s is None)" % (kind, dst))
        fields = {}
        for key in ("requester", "home"):
            if key in payload:
                fields[key] = self.resolve(payload[key])
        self.sends.append((target, (kind, tuple(sorted(fields.items())))))

    def _fanout(self, var, iterable, items):
        members = self.binds.get(iterable)
        if members is None:
            raise ModelError("fanout over unknown iterable %r" % iterable)
        for member in sorted(members):
            self.locals[var] = member
            for item in items:
                self.apply(item)
        self.locals.pop(var, None)

    def _cache_op(self, op):
        state = self.caches[self.node]
        if op == "downgrade":
            # Returns the value when the line is present, leaving it
            # SHARED; a miss leaves the cache untouched.
            if state in ("S", "E"):
                self.cache_value = True
                self.caches[self.node] = "S"
            else:
                self.cache_value = None
        elif op == "invalidate":
            # Returns the (dirty) value only for EXCLUSIVE; the line is
            # dropped regardless.
            self.cache_value = True if state == "E" else None
            self.caches[self.node] = "I"
        else:
            raise ModelError("unknown cache op %r" % op)

    # ------------------------------------------------------------ resolving

    def resolve(self, value):
        if value in self.locals:
            return self.locals[value]
        if value.startswith("$"):
            if value not in self.binds:
                raise ModelError("unbound slot %r" % value)
            return self.binds[value]
        if value == "requester":
            return self.fields["requester"]
        if value == "home":
            return self.fields["home"]
        if value == "src":
            return self.src
        if value == "self":
            return self.node
        if value == "None":
            return None
        if value == "True":
            return True
        if value == "False":
            return False
        if value.startswith("len(") and value.endswith(")"):
            inner = self.resolve(value[4:-1])
            return len(inner)
        raise ModelError("cannot resolve value %r" % value)
