"""Recovery-time communication services for one node's agent.

All recovery traffic is source-routed on the dedicated recovery lanes
(paper §4.1).  This module provides:

* a buffered receive loop over MAGIC's recovery inbox (messages for later
  phases can arrive early — e.g. a fast neighbor's barrier packet while we
  are still disseminating — and must be retained);
* router probes and node pings with retry/timeout policies (§4.2);
* router control commands (set-discard / set-table) with acks (§4.4);
* a fault-tolerant combining-tree barrier over the BFT built during
  dissemination (§4.4, citing Goodman et al. [6]), with an optional value
  reduction used by the two-phase drain agreement.

A timeout on any of these surfaces as :class:`RecoveryCommError`, which the
agent treats as a new fault: the recovery algorithm restarts (§4.1).
"""

from repro.common.errors import ReproError
from repro.common.types import Lane
from repro.coherence.messages import MessageKind
from repro.interconnect.packet import (
    Packet,
    ROUTER_CTRL_ACK,
    ROUTER_PROBE,
    ROUTER_PROBE_REPLY,
    ROUTER_SET_DISCARD,
    ROUTER_SET_TABLE,
)
from repro.sim.process import poke


class RecoveryCommError(ReproError):
    """A recovery-time communication step failed (likely a new fault)."""


class RecoveryComm:
    """Source-routed messaging for a recovery agent."""

    def __init__(self, sim, params, magic, epoch):
        self.sim = sim
        self.params = params
        self.magic = magic
        self.node_id = magic.node_id
        self.epoch = epoch
        self._pending = []    # packets received but not yet matched
        #: kind -> handler(packet); matching packets are consumed on sight
        #: (used to answer pings at any time and to echo dissemination
        #: rounds after this node's own rounds have finished)
        self.auto_handlers = {}
        self._swept_kinds = frozenset()   # auto_handlers' kinds at last sweep

    # ------------------------------------------------------------ raw send

    def send(self, kind, payload, source_route, lane=Lane.RECOVERY_A):
        body = dict(payload)
        body.setdefault("epoch", self.epoch)
        body.setdefault("sender", self.node_id)
        packet = Packet(
            src=self.node_id, dst=None, lane=lane, kind=kind,
            payload=body, flits=self._flits_of(body),
            source_route=source_route)
        packet.root_cause, packet.cause_eid = self.magic.current_lineage()
        self.magic.ni.send(packet)

    def _flits_of(self, payload):
        entries = payload.get("entry_count", 0)
        # header + ~8 bytes per view entry
        return 2 + (entries * 8 + self.params.flit_bytes - 1) // self.params.flit_bytes

    # ------------------------------------------------------------- receive

    def _matches_epoch(self, packet):
        payload = packet.payload if isinstance(packet.payload, dict) else {}
        epoch = payload.get("epoch")
        return epoch is None or epoch == self.epoch

    def receive(self, match, deadline):
        """Yield-driven receive of the first packet satisfying ``match``.

        Non-matching packets are buffered for later receives.  Returns the
        packet, or None when ``deadline`` (absolute sim time) passes.
        """
        self._run_auto_on_pending()
        for index, packet in enumerate(self._pending):
            if match(packet):
                return self._pending.pop(index)
        inbox = self.magic.recovery_inbox
        while True:
            packet = inbox.try_get()
            if packet is None:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    return None
                # watch() is non-consuming, so poking it on timeout cannot
                # steal a packet from a later receive.
                watch = inbox.watch()
                timer = self.sim.schedule(remaining, poke, watch)
                yield watch
                self.sim.cancel(timer)
                continue
            if not self._matches_epoch(packet):
                continue   # stale traffic from a restarted recovery
            if self._run_auto(packet):
                continue
            if match(packet):
                return packet
            self._pending.append(packet)

    def _run_auto(self, packet):
        handler = self.auto_handlers.get(packet.kind)
        if handler is None:
            return False
        handler(packet)
        return True

    def _run_auto_on_pending(self):
        """Offer every buffered packet to the auto-handlers again, but only
        if the set of handled kinds changed since the last sweep: a packet
        is buffered only when no handler took it, and handlers are only
        ever added, so with the same kinds a sweep finds nothing to hand
        over."""
        kinds = self.auto_handlers.keys()
        if kinds == self._swept_kinds:
            return
        self._swept_kinds = frozenset(kinds)
        remaining = []
        for packet in self._pending:
            if not self._run_auto(packet):
                remaining.append(packet)
        self._pending = remaining

    def drain_pending(self, match):
        """Pop all already-buffered packets satisfying ``match``."""
        taken, kept = [], []
        for packet in self._pending:
            if match(packet):
                taken.append(packet)
            else:
                kept.append(packet)
        self._pending = kept
        return taken

    # ------------------------------------------------------------- probing

    def probe_router(self, source_route):
        """Probe the router at the end of ``source_route``.

        Returns the router id, or None after retries exhaust (§4.2).
        """
        for _ in range(self.params.probe_retries):
            probe = Packet(
                src=self.node_id, dst=None, lane=Lane.RECOVERY_A,
                kind=ROUTER_PROBE, payload={"epoch": self.epoch},
                flits=2, source_route=list(source_route))
            probe.root_cause, probe.cause_eid = self.magic.current_lineage()
            self.magic.ni.send(probe)
            uid = probe.uid
            deadline = self.sim.now + self.params.probe_timeout

            def match(packet, uid=uid):
                return (packet.kind == ROUTER_PROBE_REPLY
                        and packet.payload.get("probe_uid") == uid)

            reply = yield from self.receive(match, deadline)
            if reply is not None:
                return reply.payload["router_id"]
        return None

    def ping_node(self, target, source_route):
        """Ping a node controller until its recovery code replies (§4.2).

        Returns True if the node proved alive before the ping deadline.
        """
        deadline = self.sim.now + self.params.ping_deadline
        while self.sim.now < deadline:
            self.send(MessageKind.PING,
                      {"target": target, "return_to": self.node_id},
                      source_route)
            wait_until = min(deadline, self.sim.now + self.params.ping_interval)

            def match(packet):
                return (packet.kind == MessageKind.PING_REPLY
                        and packet.payload.get("sender") == target)

            reply = yield from self.receive(match, wait_until)
            if reply is not None:
                return True
        return False

    def send_ping_oneway(self, target, source_route):
        """Fire-and-forget ping (the speculative-ping optimization, §4.2)."""
        self.send(MessageKind.PING,
                  {"target": target, "return_to": self.node_id},
                  source_route)

    def answer_ping(self, ping_packet):
        """Reply to a ping, proving this node's processor runs recovery."""
        route = list(reversed(ping_packet.trace_ports))
        self.send(MessageKind.PING_REPLY, {}, route, lane=Lane.RECOVERY_B)

    # -------------------------------------------------------- router control

    def control_router(self, command, payload, source_route):
        """Send a set-discard/set-table command; waits for the ack.

        Raises :class:`RecoveryCommError` when the router never answers.
        """
        assert command in (ROUTER_SET_DISCARD, ROUTER_SET_TABLE)
        # Unique per machine, not per agent: an ack carries no epoch, so a
        # key reused by a later episode's agent could match a stale ack.
        key = next(self.sim.ctrl_keys)
        body = dict(payload)
        body["ctrl_key"] = key
        body["epoch"] = self.epoch
        for _ in range(self.params.ctrl_retries):
            packet = Packet(
                src=self.node_id, dst=None, lane=Lane.RECOVERY_A,
                kind=command, payload=dict(body), flits=4,
                source_route=list(source_route))
            packet.root_cause, packet.cause_eid = (
                self.magic.current_lineage())
            self.magic.ni.send(packet)
            deadline = self.sim.now + self.params.ctrl_timeout

            def match(reply):
                return (reply.kind == ROUTER_CTRL_ACK
                        and reply.payload.get("ctrl_key") == key)

            reply = yield from self.receive(match, deadline)
            if reply is not None:
                return
        raise RecoveryCommError(
            "router control %s from node %d got no ack"
            % (command, self.node_id))

    # ---------------------------------------------------------------- barrier

    def barrier(self, name, tree, routes, value=False):
        """Fault-tolerant combining-tree barrier (§4.4).

        ``tree`` is ``(parent, children)`` for this node over the cwn graph;
        ``routes[n]`` is the source route to cwn member ``n``.  ``value`` is
        this node's contribution; values are OR-ed up the tree.  Returns the
        reduced value broadcast down from the root.

        Raises :class:`RecoveryCommError` if a partner never arrives — a new
        fault happened, and recovery must restart.
        """
        parent, children = tree
        reduced = value
        deadline = self.sim.now + self.params.barrier_timeout

        for child in sorted(children):
            def match(packet, child=child):
                return (packet.kind == MessageKind.BARRIER_UP
                        and packet.payload.get("barrier") == name
                        and packet.payload.get("sender") == child)

            packet = yield from self.receive(match, deadline)
            if packet is None:
                raise RecoveryCommError(
                    "barrier %r: child %d missing at node %d"
                    % (name, child, self.node_id))
            reduced = reduced or packet.payload.get("value")

        if parent is not None:
            self.send(MessageKind.BARRIER_UP,
                      {"barrier": name, "value": reduced}, routes[parent])

            def match_down(packet):
                return (packet.kind == MessageKind.BARRIER_DOWN
                        and packet.payload.get("barrier") == name)

            packet = yield from self.receive(match_down, deadline)
            if packet is None:
                raise RecoveryCommError(
                    "barrier %r: release never reached node %d"
                    % (name, self.node_id))
            reduced = packet.payload.get("value")

        for child in sorted(children):
            self.send(MessageKind.BARRIER_DOWN,
                      {"barrier": name, "value": reduced}, routes[child])
        tr = self.magic.trace
        if tr is not None:
            rc = self.magic.recovery_cause
            tr.emit("barrier", "done", node=self.node_id,
                    cause=None if rc is None else rc[1], barrier=name,
                    epoch=self.epoch, value=reduced)
        return reduced
