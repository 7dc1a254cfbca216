"""Exhaustive small-model exploration of the extracted protocol.

Three scenarios, mirroring the paper's containment argument:

* ``fault-free/firewall-on`` and ``fault-free/firewall-off`` — the full
  protocol under every interleaving of requests, writebacks, silent
  drops and deliveries from an idle line (plus an INCOHERENT seed for
  the post-recovery bus-error paths).  Checked: single-owner, cache/
  directory consistency, lock bookkeeping, firmware asserts, and
  drainability — every reachable LOCKED configuration must be able to
  drain back to an unlocked state (the abstract-machine liveness of
  "every lock() reaches unlock()").
* ``failed-cell`` — one remote is torn away (paper §4.1: the firewall
  is closed against its cell) with seeds capturing the messy moment of
  failure: the dead node still owns the line, still sits in the sharer
  vector, or has a pre-failure GETX in flight.  Checked: safety only —
  single-owner and no write grant (DATA_EXCL) ever targets the failed
  cell.  Drainability is *not* checked here: a line locked on a dead
  owner legitimately wedges until recovery reconstructs the directory,
  which is the recovery subsystem's job, not the protocol's.

The uncached and scrub kinds never enter the stateful exploration (the
model line is ordinary memory); instead :func:`static_checks` proves
their containment shape directly on the spec — remote uncached I/O must
have a rejection path (§3.3) and every kind must reply to somebody — and
that every ``DirState``/``MessageKind`` name the spec uses is a member.

:func:`check_protocol` is the whole ``repro.cli verify-protocol`` gate:
extract, bless or diff against the golden spec, explore.
"""

import os

from repro.coherence.messages import MessageKind
from repro.common.types import DirState
from repro.verify.extract import (extract_from_source, load_spec, spec_diff,
                                  write_spec)
from repro.verify.model import (GRANT_KINDS, HOME, REPLY_KINDS, ModelError,
                                Scenario, SpecMachine, enqueue, dequeue,
                                initial_config, make_line, message)

#: kinds excluded from stateful exploration (checked statically).
STATIC_ONLY_KINDS = frozenset({"UC_READ", "UC_WRITE", "PAGE_SCRUB"})

_ENUM_MEMBERS = {
    "DirState": frozenset(state.name for state in DirState),
    "MessageKind": frozenset(kind.name for kind in MessageKind),
}

#: item/atom tag -> (position, enum) of the bare member name it carries.
_MEMBER_SLOTS = {
    "state": (1, "DirState"), "unlock": (1, "DirState"),
    "pending_kind": (1, "MessageKind"), "lock": (1, "MessageKind"),
    "send": (2, "MessageKind"),
}

_TRACE_LIMIT = 20


class Violation:
    """One invariant breach, with a reproduction trace."""

    __slots__ = ("invariant", "scenario", "description", "trace")

    def __init__(self, invariant, scenario, description, trace=()):
        self.invariant = invariant
        self.scenario = scenario
        self.description = description
        self.trace = list(trace)

    def to_dict(self):
        return {"invariant": self.invariant, "scenario": self.scenario,
                "description": self.description, "trace": self.trace}

    def __repr__(self):
        return "<Violation %s/%s>" % (self.scenario, self.invariant)


class ScenarioResult:

    __slots__ = ("name", "states", "transitions", "violations")

    def __init__(self, name, states, transitions, violations):
        self.name = name
        self.states = states
        self.transitions = transitions
        self.violations = violations

    def to_dict(self):
        return {"name": self.name, "states": self.states,
                "transitions": self.transitions,
                "violations": [v.to_dict() for v in self.violations]}


class Report:
    """Outcome of a full verification run over one spec."""

    def __init__(self, scenarios, static_violations):
        self.scenarios = scenarios
        self.static_violations = static_violations

    @property
    def ok(self):
        return not self.violations()

    def violations(self):
        found = list(self.static_violations)
        for scenario in self.scenarios:
            found.extend(scenario.violations)
        return found

    @property
    def total_states(self):
        return sum(scenario.states for scenario in self.scenarios)

    @property
    def total_transitions(self):
        return sum(scenario.transitions for scenario in self.scenarios)

    def to_dict(self):
        return {
            "ok": self.ok,
            "total_states": self.total_states,
            "total_transitions": self.total_transitions,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "static_violations": [v.to_dict()
                                  for v in self.static_violations],
        }


def default_scenarios():
    return [
        Scenario("fault-free/firewall-on"),
        Scenario("fault-free/firewall-off", firewall_enabled=False),
        Scenario("failed-cell", failed={3}, deny_failed=True,
                 check_drain=False),
    ]


def verify_spec(spec, scenarios=None, max_states=500000):
    """Explore every scenario; returns a :class:`Report`."""
    machine = SpecMachine(spec)
    results = []
    for scenario in (scenarios or default_scenarios()):
        explorer = _Explorer(machine, scenario, max_states)
        results.append(explorer.run())
    return Report(results, static_checks(spec))


# -------------------------------------------------------------------- gate

_COHERENCE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "coherence")
PROTOCOL_SOURCE = os.path.join(_COHERENCE_DIR, "protocol.py")
GOLDEN_SPEC = os.path.join(_COHERENCE_DIR, "protocol.spec.json")


class ProtocolCheck:
    """What the gate found in the shipped protocol.

    ``drift`` is None when no golden spec is committed; ``report`` is
    None when the run re-blessed the spec instead of checking it.
    """

    __slots__ = ("spec", "drift", "report")

    def __init__(self, spec, drift, report):
        self.spec = spec
        self.drift = drift
        self.report = report

    @property
    def ok(self):
        return (self.report is not None and self.report.ok
                and not self.drift)


def check_protocol(update_spec=False, max_states=500000):
    """The ``verify-protocol`` gate over ``coherence/protocol.py``.

    Extracts the transition table, raising :class:`ExtractionError` on
    anything outside the handler dialect.  With ``update_spec`` it
    re-blesses the golden spec and stops; otherwise it diffs the table
    against the golden spec and explores it.
    """
    with open(PROTOCOL_SOURCE) as handle:
        model = extract_from_source(handle.read())
    spec = model.to_spec()
    if update_spec:
        write_spec(GOLDEN_SPEC, model)
        return ProtocolCheck(spec, [], None)
    drift = (spec_diff(load_spec(GOLDEN_SPEC), spec)
             if os.path.exists(GOLDEN_SPEC) else None)
    return ProtocolCheck(spec, drift,
                         verify_spec(spec, max_states=max_states))


# ------------------------------------------------------------ static checks

def static_checks(spec):
    """Spec-shape invariants: enum names, and the kinds the model does
    not explore."""
    violations = [
        Violation("unknown-member", "static",
                  "%s.%s is not a member of the %s enum"
                  % (enum, member, enum))
        for enum, member in _unknown_members(spec)]
    by_kind = {}
    for entry in spec.get("transitions", ()):
        by_kind.setdefault(entry["kind"], []).append(entry)
    for kind in sorted(STATIC_ONLY_KINDS):
        paths = by_kind.get(kind)
        if not paths:
            violations.append(Violation(
                "missing-handler", "static",
                "%s has no extracted transition" % kind))
            continue
        if not any(item[0] == "send"
                   for entry in paths for item in _walk(entry["items"])):
            violations.append(Violation(
                "silent-handler", "static",
                "%s never replies; requesters would wedge" % kind))
    for kind in ("UC_READ", "UC_WRITE"):
        if not _has_uc_rejection(by_kind.get(kind, ())):
            violations.append(Violation(
                "uncached-escape", "static",
                "%s lacks the remote-I/O rejection path (paper §3.3: "
                "nonidempotent I/O must not cross failure units)" % kind))
    return violations


def _unknown_members(spec):
    """(enum, name) pairs the spec names that the enums lack.

    The extractor never imports the protocol, so a typo such as
    ``DirState.BROKEN`` extracts cleanly into a guard that never holds.
    """
    named = {("MessageKind", kind) for kind in spec.get("handlers", {})}
    for entry in spec.get("transitions", ()):
        named.add(("MessageKind", entry["kind"]))
        _collect_members(entry["items"], named)
    return sorted((enum, member) for enum, member in named
                  if member not in _ENUM_MEMBERS[enum])


def _collect_members(node, named):
    if isinstance(node, dict):
        for value in node.values():
            _collect_members(value, named)
    elif isinstance(node, list):
        slot = (_MEMBER_SLOTS.get(node[0])
                if node and isinstance(node[0], str) else None)
        if slot is not None:
            position, enum = slot
            named.add((enum, node[position].rsplit(".", 1)[-1]))
        for child in node:
            _collect_members(child, named)
    elif isinstance(node, str):
        enum, dot, member = node.partition(".")
        if dot and enum in _ENUM_MEMBERS:
            named.add((enum, member))


def _walk(items):
    for item in items:
        yield item
        if item[0] == "fanout":
            for inner in item[3]:
                yield inner


def _has_uc_rejection(paths):
    """Some path must reject I/O for requesters outside the failure
    unit: guarded on io-region AND not-in-failure-unit, replying with an
    error payload."""
    for entry in paths:
        guarded = False
        for item in entry["items"]:
            if item[0] == "guard" and item[2]:
                if _mentions(item[1], "io_region") and _mentions(
                        item[1], "in_failure_unit"):
                    guarded = True
            if guarded and item[0] == "send":
                payload = item[3]
                if "BusErrorKind" in str(payload.get("error_kind", "")):
                    return True
    return False


def _mentions(atom, tag):
    if atom[0] == tag:
        return True
    if atom[0] in ("and", "or"):
        return any(_mentions(part, tag) for part in atom[1])
    if atom[0] == "not":
        return _mentions(atom[1], tag)
    return False


# -------------------------------------------------------------- exploration

class _Explorer:

    def __init__(self, machine, scenario, max_states):
        self.machine = machine
        self.scenario = scenario
        self.max_states = max_states
        self.parents = {}        # config -> (parent-config, move label)
        self.successors = {}     # config -> [config]
        self.violations = []
        self.seen_violations = set()
        self.transitions = 0

    def run(self):
        scenario = self.scenario
        frontier = list(self._seeds())
        for config in frontier:
            self.parents[config] = (None, "seed")
            self._check_config(config)
        index = 0
        while index < len(frontier):
            config = frontier[index]
            index += 1
            if len(self.parents) > self.max_states:
                self._violate("state-explosion", config,
                              "exceeded %d states" % self.max_states)
                break
            for label, successor in self._moves(config):
                self.successors.setdefault(config, []).append(successor)
                if successor in self.parents:
                    continue
                self.parents[successor] = (config, label)
                self._check_config(successor)
                frontier.append(successor)
        if scenario.check_drain:
            self._check_drain()
        return ScenarioResult(scenario.name, len(self.parents),
                              self.transitions, self.violations)

    # ----------------------------------------------------------------- seeds

    def _seeds(self):
        n = self.scenario.num_nodes
        yield initial_config(n)
        # Post-recovery marking: the line was declared lost.
        yield initial_config(n, line=make_line(state="INCOHERENT",
                                               memory_valid=False))
        failed = sorted(self.scenario.failed)
        if failed:
            dead = failed[0]
            live = self.scenario.live_remotes()[0]
            # The dead node still owns the line dirty.
            yield initial_config(
                n, line=make_line(state="EXCLUSIVE", owner=dead,
                                  memory_valid=False),
                caches=self._caches(n, {dead: "E"}))
            # The dead node still sits in the sharer vector.
            yield initial_config(
                n, line=make_line(state="SHARED", sharers={dead, live}),
                caches=self._caches(n, {dead: "S", live: "S"}))
            # A pre-failure write request from the dead node is still in
            # flight — the firewall must eat it.
            yield initial_config(
                n, queues=enqueue((), dead, HOME,
                                  message("GETX", requester=dead)))
            # And a pre-failure read for completeness.
            yield initial_config(
                n, queues=enqueue((), dead, HOME,
                                  message("GET", requester=dead)))

    @staticmethod
    def _caches(n, assignments):
        caches = ["I"] * n
        for node, state in assignments.items():
            caches[node] = state
        return tuple(caches)

    # ----------------------------------------------------------------- moves

    def _moves(self, config):
        moves = []
        for remote in self.scenario.live_remotes():
            moves.extend(self._env_moves(config, remote))
        for (src, dst), _messages in config.queues:
            moves.append(self._delivery(config, src, dst))
        return [move for move in moves if move is not None]

    def _env_moves(self, config, remote):
        cache = config.caches[remote]
        outstanding = config.outstanding[remote]
        moves = []
        # One memory operation per processor at a time: a new request or
        # writeback is issued only once the previous one has left the
        # node's request lane.  This bounds each remote->home FIFO to one
        # message without hiding any cross-node race.  On top of that,
        # ``scenario.max_concurrent`` caps how many remotes may be mid-
        # transaction at once — every pairwise race is still enumerated.
        budget = self.scenario.max_transactions
        if (outstanding is None and not self._lane_busy(config, remote)
                and (budget is None or config.spent < budget)
                and self._active_remotes(config)
                < self.scenario.max_concurrent):
            if cache == "I":
                moves.append(self._issue(config, remote, "GET"))
                moves.append(self._issue(config, remote, "GETX"))
            elif cache == "S":
                moves.append(self._issue(config, remote, "GETX"))
            elif cache == "E":
                moves.append(self._evict(config, remote))
        if cache == "S":
            moves.append(self._silent_drop(config, remote))
        return moves

    @staticmethod
    def _lane_busy(config, remote):
        for (src, dst), messages in config.queues:
            if src == remote and messages:
                return True
        return False

    def _active_remotes(self, config):
        count = 0
        for remote in self.scenario.live_remotes():
            if (config.outstanding[remote] is not None
                    or self._lane_busy(config, remote)):
                count += 1
        return count

    def _issue(self, config, remote, kind):
        outstanding = list(config.outstanding)
        outstanding[remote] = kind
        queues = enqueue(config.queues, remote, HOME,
                         message(kind, requester=remote))
        successor = config.replace(outstanding=outstanding, queues=queues,
                                   spent=config.spent + 1)
        return ("%d issues %s" % (remote, kind), successor)

    def _evict(self, config, remote):
        caches = list(config.caches)
        caches[remote] = "I"
        queues = enqueue(config.queues, remote, HOME, message("PUT"))
        successor = config.replace(caches=caches, queues=queues,
                                   spent=config.spent + 1)
        return ("%d evicts (PUT)" % remote, successor)

    def _silent_drop(self, config, remote):
        caches = list(config.caches)
        caches[remote] = "I"
        successor = config.replace(caches=caches)
        return ("%d drops its SHARED copy" % remote, successor)

    def _delivery(self, config, src, dst):
        msg, queues = dequeue(config.queues, src, dst)
        kind = msg[0]
        base = config.replace(queues=queues)
        label = "deliver %s %d->%d" % (kind, src, dst)
        if dst in self.scenario.failed:
            # The dead cell consumes nothing; the interconnect drops
            # traffic addressed to it (as magic's node map does).
            return (label + " (dropped: failed)", base)
        if kind in REPLY_KINDS:
            return (label, self._absorb(base, dst, kind))
        self.transitions += 1
        try:
            outcome = self.machine.deliver(base, src, dst, msg,
                                           self.scenario)
        except ModelError as exc:
            self._violate("model-gap", config, str(exc))
            return None
        for tag, detail in outcome.events:
            if tag == "assert":
                self._violate("firmware-assert", config,
                              "firmware assertion %s tripped delivering "
                              "%s at node %d" % (detail, kind, dst))
            elif tag == "acks-underflow":
                self._violate("ack-underflow", config,
                              "awaiting_acks went negative on %s" % kind)
            elif tag == "relock":
                self._violate("lock-bookkeeping", config,
                              "%s locked a line already LOCKED for %s"
                              % (kind, detail))
        successor = outcome.config
        for target, sent in outcome.sends:
            sent_kind = sent[0]
            if (sent_kind in GRANT_KINDS
                    and target in self.scenario.failed):
                self._violate(
                    "escape-send", config,
                    "%s handler sent %s into failed cell %d (firewall "
                    "escape, paper §4.1)" % (kind, sent_kind, target))
            successor = successor.replace(
                queues=enqueue(successor.queues, dst, target, sent))
        if kind == "INVAL" and successor.outstanding[dst] == "GET":
            # Mirrors magic's MSHR poisoning: an INVAL crossing an
            # in-flight fill marks it so the data is used once and the
            # line is not installed SHARED.
            outstanding = list(successor.outstanding)
            outstanding[dst] = "GET*"
            successor = successor.replace(outstanding=outstanding)
        return (label, successor)

    def _absorb(self, config, node, kind):
        """Requester-side reply handling (magic's _handle_reply)."""
        caches = list(config.caches)
        outstanding = list(config.outstanding)
        if kind == "DATA_SHARED":
            if outstanding[node] != "GET*":
                caches[node] = "S"
            # poisoned fill: the value satisfies the load exactly once
            # but the stale line is not installed (use-once semantics)
        elif kind == "DATA_EXCL":
            caches[node] = "E"
        outstanding[node] = None
        return config.replace(caches=caches, outstanding=outstanding)

    # ------------------------------------------------------------ invariants

    def _check_config(self, config):
        line = config.line
        state, owner, sharers = line[0], line[1], line[2]
        exclusive_holders = [node for node, cache
                             in enumerate(config.caches) if cache == "E"]
        grants_in_flight = sum(
            1 for _pair, messages in config.queues
            for msg_kind, _fields in messages if msg_kind == "DATA_EXCL")
        if len(exclusive_holders) + grants_in_flight > 1:
            self._violate(
                "single-owner", config,
                "%d exclusive holder(s) %s with %d DATA_EXCL grant(s) in "
                "flight" % (len(exclusive_holders), exclusive_holders,
                            grants_in_flight))
        for node in exclusive_holders:
            if node in self.scenario.failed:
                continue
            if config.outstanding[node] is not None:
                continue      # transient: a request of its own in flight
            if state == "EXCLUSIVE" and owner != node:
                self._violate(
                    "single-owner", config,
                    "node %d caches the line EXCLUSIVE but the directory "
                    "owner is %s" % (node, owner))
            elif state in ("SHARED", "UNOWNED"):
                self._violate(
                    "single-owner", config,
                    "node %d caches the line EXCLUSIVE but the directory "
                    "is %s" % (node, state))
        for node, cache in enumerate(config.caches):
            if cache != "S" or node in self.scenario.failed:
                continue
            if config.outstanding[node] is not None:
                continue      # e.g. S->E upgrade granted but not absorbed
            if state == "SHARED" and node not in sharers:
                self._violate(
                    "sharer-vector", config,
                    "node %d caches the line SHARED but is missing from "
                    "the sharer vector %s" % (node, sorted(sharers)))
            elif state in ("UNOWNED", "EXCLUSIVE"):
                self._violate(
                    "sharer-vector", config,
                    "node %d caches the line SHARED while the directory "
                    "is %s" % (node, state))
        if state == "LOCKED":
            if line[4] not in ("GET", "GETX") or line[5] is None:
                self._violate(
                    "lock-bookkeeping", config,
                    "LOCKED entry with pending_kind=%s "
                    "pending_requester=%s" % (line[4], line[5]))
        elif line[4] is not None or line[6] != 0 or line[7]:
            self._violate(
                "lock-bookkeeping", config,
                "unlocked entry retains pending state %s/acks=%d/"
                "await-put=%s" % (line[4], line[6], line[7]))

    def _check_drain(self):
        """Reverse reachability: every LOCKED config must reach an
        unlocked one (otherwise the abstract machine deadlocks)."""
        predecessors = {}
        drained = []
        for config, successors in self.successors.items():
            for successor in successors:
                predecessors.setdefault(successor, []).append(config)
        for config in self.parents:
            if config.state != "LOCKED":
                drained.append(config)
        can_drain = set(drained)
        frontier = list(drained)
        index = 0
        while index < len(frontier):
            for predecessor in predecessors.get(frontier[index], ()):
                if predecessor not in can_drain:
                    can_drain.add(predecessor)
                    frontier.append(predecessor)
            index += 1
        for config in self.parents:
            if config not in can_drain:
                self._violate(
                    "lock-deadlock", config,
                    "LOCKED configuration cannot drain: no sequence of "
                    "deliveries ever unlocks the line")
                break        # one witness is enough

    # -------------------------------------------------------------- plumbing

    def _violate(self, invariant, config, description):
        key = (invariant, description.split(" at node")[0])
        if key in self.seen_violations:
            return
        self.seen_violations.add(key)
        self.violations.append(Violation(
            invariant, self.scenario.name, description,
            trace=self._trace(config)))

    def _trace(self, config):
        steps = []
        cursor = config
        while cursor is not None and len(steps) < _TRACE_LIMIT:
            parent, label = self.parents.get(cursor, (None, "?"))
            steps.append("%s  =>  %s" % (label, cursor.describe()))
            cursor = parent
        steps.reverse()
        return steps
