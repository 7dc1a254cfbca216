"""Exhaustive small-model exploration of the live protocol handlers.

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

Every delivery calls the handler the simulator runs
(:class:`~repro.verify.model.StandInMagic`).  The uncached and scrub
kinds never enter the stateful exploration (the model line is ordinary
memory); :func:`direct_checks` delivers each of them once instead — a
remote I/O request must be rejected without touching the device
(§3.3), and a scrub must be acknowledged.

:func:`check_protocol` is the whole ``repro.cli verify-protocol`` gate.
"""

import os
import traceback

from repro.coherence.messages import MessageKind
from repro.common.types import BusErrorKind, page_of
from repro.verify.model import (GRANT_KINDS, HOME, REPLY_KINDS, ModelError,
                                Scenario, StandInMagic, enqueue, dequeue,
                                initial_config, make_line, message)

#: kinds delivered once by :func:`direct_checks` instead of explored.
DIRECT_KINDS = ("UC_READ", "UC_WRITE", "PAGE_SCRUB")

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

    __slots__ = ("name", "states", "transitions", "pairs", "violations")

    def __init__(self, name, states, transitions, pairs, violations):
        self.name = name
        self.states = states
        self.transitions = transitions
        #: (directory state, kind) pairs delivered; REMOTE off-home
        self.pairs = pairs
        self.violations = violations

    def to_dict(self):
        return {"name": self.name, "states": self.states,
                "transitions": self.transitions,
                "violations": [v.to_dict() for v in self.violations]}


class Report:
    """Outcome of a full verification run over one handler table."""

    def __init__(self, scenarios, direct_violations):
        self.scenarios = scenarios
        self.direct_violations = direct_violations

    @property
    def ok(self):
        return not self.violations()

    def violations(self):
        found = list(self.direct_violations)
        for scenario in self.scenarios:
            found.extend(scenario.violations)
        return found

    @property
    def total_states(self):
        return sum(scenario.states for scenario in self.scenarios)

    @property
    def total_transitions(self):
        return sum(scenario.transitions for scenario in self.scenarios)

    @property
    def pairs(self):
        """Every ``(directory state, kind)`` pair any scenario delivered,
        named as the live engine's ``ProtocolEngine.covered`` names them."""
        found = set()
        for scenario in self.scenarios:
            found |= scenario.pairs
        return found

    def to_dict(self):
        return {
            "ok": self.ok,
            "total_states": self.total_states,
            "total_transitions": self.total_transitions,
            "pairs": [list(pair) for pair in sorted(self.pairs)],
            "scenarios": [s.to_dict() for s in self.scenarios],
            "direct_violations": [v.to_dict()
                                  for v in self.direct_violations],
        }

    def to_text(self):
        """The human report: one line per scenario, each violation with
        its trace, and the verdict."""
        lines = ["model: live handlers, %d (directory state, kind) pairs "
                 "delivered" % len(self.pairs)]
        for scenario in self.scenarios:
            lines.append("  %-26s %6d states %7d transitions %3d "
                         "violation(s)" % (scenario.name, scenario.states,
                                           scenario.transitions,
                                           len(scenario.violations)))
        lines.append("  %-26s %3d violation(s)" % (
            "direct (UC, PAGE_SCRUB)", len(self.direct_violations)))
        for violation in self.violations():
            lines.append("VIOLATION [%s] in %s: %s"
                         % (violation.invariant, violation.scenario,
                            violation.description))
            lines.extend("    %s" % step for step in violation.trace)
        lines.append("verify-protocol: %s (%d states, %d transitions "
                     "explored)" % ("OK" if self.ok else "FAILED",
                                    self.total_states,
                                    self.total_transitions))
        return "\n".join(lines)


def default_scenarios():
    return [
        Scenario("fault-free/firewall-on"),
        Scenario("fault-free/firewall-off", firewall_enabled=False),
        Scenario("failed-cell", failed={3}, deny_failed=True,
                 check_drain=False),
    ]


def check_protocol(handlers=None, engine_class=None, scenarios=None,
                   max_states=500000):
    """The ``verify-protocol`` gate; returns a :class:`Report`.

    ``handlers``/``engine_class`` default to the shipped ``_HANDLERS``
    and ``ProtocolEngine`` of ``coherence/protocol.py``.
    """
    results = []
    for scenario in (scenarios or default_scenarios()):
        machine = StandInMagic(scenario, handlers, engine_class)
        results.append(_Explorer(machine, scenario, max_states).run())
    return Report(results, direct_checks(handlers, engine_class))


# ------------------------------------------------------------ direct checks

def direct_checks(handlers=None, engine_class=None):
    """Deliver each of :data:`DIRECT_KINDS` once, from a remote requester,
    to the home of an I/O register (uncached) or the model page (scrub)."""
    scenario = default_scenarios()[0]
    requester = 1
    violations = []
    for kind in DIRECT_KINDS:
        machine = StandInMagic(scenario, handlers, engine_class)
        address_map = machine.address_map
        if MessageKind[kind] not in machine.handlers:
            violations.append(Violation(
                "missing-handler", "direct", "%s has no handler" % kind))
            continue
        if kind == "PAGE_SCRUB":
            payload = {"page": page_of(machine.line, address_map.page_size),
                       "requester": requester, "scrub_key": ("scrub", 1)}
        else:
            payload = {"address": address_map.io_region_start(HOME),
                       "requester": requester, "uc_key": ("uc", 1),
                       "value": 1}
        trace = ["deliver %s %d->%d %s" % (kind, requester, HOME, payload)]
        try:
            outcome = machine.run(initial_config(scenario.num_nodes),
                                  requester, HOME, kind, payload)
        except Exception as exc:  # repro-lint: disable=broad-except — a
            # handler bug is a finding for the report, not a checker crash
            violations.append(Violation(
                "handler-exception", "direct", _raised(machine, kind, exc),
                trace))
            continue
        replies = [(sent[0], sent_payload)
                   for target, sent, sent_payload in outcome.sends
                   if target == requester]
        trace.extend("reply %s %s" % sent for sent in replies)
        if kind == "PAGE_SCRUB":
            if not any(reply_kind == "SCRUB_ACK"
                       for reply_kind, _ in replies):
                violations.append(Violation(
                    "silent-handler", "direct",
                    "PAGE_SCRUB was not acknowledged with SCRUB_ACK; the "
                    "requester would wedge", trace))
            continue
        reply = "UC_DATA" if kind == "UC_READ" else "UC_ACK"
        rejected = any(
            reply_kind == reply and reply_payload.get("error_kind")
            == BusErrorKind.REMOTE_UNCACHED_IO
            for reply_kind, reply_payload in replies)
        touched = machine.io_device.total_operations()
        if not rejected or touched:
            trace.append("device operations: %d" % touched)
            violations.append(Violation(
                "uncached-escape", "direct",
                "%s of an I/O register from outside the home's failure "
                "unit must get the REMOTE_UNCACHED_IO %s and leave the "
                "device untouched (paper §3.3: nonidempotent I/O must not "
                "cross failure units)" % (kind, reply), trace))
    return violations


def _raised(machine, kind, exc):
    """Describe an exception a delivery raised, located at the deepest
    line of the handler's source file (the protocol line to fix)."""
    frames = traceback.extract_tb(exc.__traceback__)
    source = machine.handlers[MessageKind[kind]].__code__.co_filename
    frame = ([f for f in frames if f.filename == source] or frames)[-1]
    return "%s handler raised %s: %s (%s:%d)" % (
        kind, type(exc).__name__, exc, os.path.basename(frame.filename),
        frame.lineno)


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
        self.pairs = set()

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
                              self.transitions, self.pairs, self.violations)

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
        self.pairs.add((base.state if dst == HOME else "REMOTE", kind))
        try:
            outcome = self.machine.deliver(base, src, dst, msg)
        except ModelError as exc:
            self._violate("model-gap", config, str(exc))
            return None
        except Exception as exc:  # repro-lint: disable=broad-except — a
            # handler bug is a finding with a trace, not a checker crash
            self._violate("handler-exception", config,
                          "%s at node %d"
                          % (_raised(self.machine, kind, exc), dst))
            return None
        for tag, detail in outcome.events:
            if tag == "assert":
                self._violate("firmware-assert", config,
                              "firmware assertion %r tripped delivering "
                              "%s at node %d" % (detail, kind, dst))
            elif tag == "acks-underflow":
                self._violate("ack-underflow", config,
                              "awaiting_acks went negative on %s" % kind)
            elif tag == "relock":
                self._violate("lock-bookkeeping", config,
                              "%s locked a line already LOCKED for %s"
                              % (kind, detail))
        successor = outcome.config
        for target, sent, _payload in outcome.sends:
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
