"""SPIDER-like router with per-lane input buffering and credit back-pressure.

A router has no process: :meth:`Router.notify` puts one forwarding scan
(:meth:`Router._run`) on the event heap unless one is already pending, and
the scan is a plain callback (DESIGN.md §12 states the scheduling rule).
Wakes are exact-match: a freed slot wakes its feeder only if the feeder
was refused one, and a busy output arms one timer per instant.
Input buffers exist per ``(port, lane)``; a packet is forwarded when its
output port is idle and the downstream buffer has a free slot (credit
reserved at transfer start).  A full downstream buffer therefore backs
traffic up toward the sources, which is exactly the congestion mechanism
that makes a wedged node controller dangerous (paper §3.1).

Recovery lanes get two special behaviours from the hardware (paper §4.1):

* packets on them may be *source-routed* (the route is a list of output
  ports consumed hop by hop);
* a recovery-lane packet that has been stalled at a router for longer than
  ``recovery_stall_discard`` is discarded, so the recovery lanes can never
  stay congested.

Routers also answer :data:`~repro.interconnect.packet.ROUTER_PROBE` packets
in hardware (used by recovery initiation to map the neighborhood) and
support *discard ports* (used during interconnect recovery to isolate failed
regions and let stalled traffic drain).
"""

from collections import deque

from repro.common.types import Lane
from repro.interconnect.packet import (
    Packet,
    ROUTER_CTRL_ACK,
    ROUTER_PROBE,
    ROUTER_PROBE_REPLY,
    ROUTER_SET_DISCARD,
    ROUTER_SET_TABLE,
    merge_causes,
)

#: The port connecting a router to its own node's controller.
LOCAL_PORT = -1

_RECOVERY_LANES = (Lane.RECOVERY_A, Lane.RECOVERY_B)
_ROUTER_KINDS = (ROUTER_PROBE, ROUTER_SET_DISCARD, ROUTER_SET_TABLE)


def _payload_line(packet):
    """Memory line carried by a packet, if its payload names one."""
    payload = packet.payload
    if type(payload) is dict:
        return payload.get("line")
    return None


class RouterStats:
    """Per-router packet accounting (useful in tests and debugging)."""

    def __init__(self):
        self.forwarded = 0
        self.delivered_local = 0
        self.dropped_failed = 0
        self.dropped_unroutable = 0
        self.dropped_discard = 0
        self.dropped_stall = 0
        self.dropped_link = 0
        self.dropped_intermittent = 0
        self.probes_answered = 0


class NodeInterface:
    """The router-facing side of a node controller (MAGIC NI).

    Holds the bounded inbox the router delivers into, and the outbound queue
    MAGIC sends from.  The inbox bound is what turns a non-consuming
    controller (infinite-loop fault) into interconnect back-pressure.
    """

    def __init__(self, sim, params, node_id):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.router = None
        from repro.sim.channel import Channel
        self.inbox = Channel(sim, name="ni%d.inbox" % node_id)
        self._reserved = 0
        self.failed = False          # node failure: arrivals silently dropped
        self.trace = None            # telemetry recorder (None: disabled)
        self.fault_lineage = None    # (root id, inject eid) when failed
        self._outbox = deque()
        self._pump_idle = False      # started and no pump run on the heap

    # -- router-side API -----------------------------------------------------

    def can_accept(self):
        if self.failed:
            return True   # failed controllers sink packets (paper §4.1)
        return len(self.inbox) + self._reserved < self.params.magic_inbox_capacity

    def reserve(self):
        self._reserved += 1

    def complete_delivery(self, packet):
        self._reserved -= 1
        if self.failed:
            tr = self.trace
            if tr is not None:
                # The failed controller sinks the packet: the sink event
                # descends both from the packet's own chain and from the
                # fault that killed this interface.
                root, cause = packet.root_cause, packet.cause_eid
                lineage = self.fault_lineage
                if lineage is not None:
                    if root is None:
                        root = lineage[0]
                    cause = merge_causes(cause, lineage[1])
                tr.emit("pkt", "sink", node=self.node_id, cause=cause,
                        kind=str(packet.kind), src=packet.src,
                        lane=packet.lane.name, uid=packet.uid, root=root,
                        line=_payload_line(packet))
            return
        tr = self.trace
        if tr is not None:
            eid = tr.emit("pkt", "recv", node=self.node_id,
                          cause=packet.cause_eid, kind=str(packet.kind),
                          src=packet.src, lane=packet.lane.name,
                          hops=packet.hops, uid=packet.uid,
                          truncated=packet.truncated,
                          root=packet.root_cause,
                          line=_payload_line(packet))
            if eid is not None:
                packet.cause_eid = eid
        self.inbox.put(packet)

    # -- controller-side API ---------------------------------------------------

    def receive(self):
        """Event yielding the next inbound packet; frees a router credit."""
        event = self.inbox.get()
        self._notify_router()
        return event

    def try_receive(self):
        """Non-blocking receive; frees a router credit when a packet pops."""
        packet = self.inbox.try_get()
        if packet is not None:
            self._notify_router()
        return packet

    def _notify_router(self):
        if self.router is not None:
            self.router.notify()

    def send(self, packet):
        """Queue an outbound packet; the pump injects it when space allows."""
        packet.uid = next(self.sim.packet_uids)
        tr = self.trace
        if tr is not None:
            eid = tr.emit("pkt", "send", node=self.node_id,
                          cause=packet.cause_eid, kind=str(packet.kind),
                          dst=packet.dst, lane=packet.lane.name,
                          uid=packet.uid, root=packet.root_cause,
                          line=_payload_line(packet))
            if eid is not None:
                packet.cause_eid = eid
        self._outbox.append(packet)
        self._kick_pump()

    def start(self):
        """Schedule the first outbound pump run (called by the network)."""
        self.sim.schedule(0.0, self._pump)

    def _kick_pump(self):
        """One pump run on the heap per idle period; kicks before
        :meth:`start`, or while a run is pending, schedule nothing."""
        if self._pump_idle:
            self._pump_idle = False
            self.sim.schedule(0.0, self._pump)

    def notify_space(self):
        """Router informs us a local input-buffer slot was freed on the
        lane that refused the pump."""
        self._kick_pump()

    def _pump(self):
        outbox = self._outbox
        while outbox and not self.failed:
            if not self.router.inject_local(outbox[0]):
                break
            outbox.popleft()
        self._pump_idle = True

    _pump.profile_label = "niN.pump"

    def fail(self):
        self.failed = True
        self.inbox.clear()
        self._outbox.clear()


class Router:
    """A single router of the interconnect fabric."""

    def __init__(self, sim, params, router_id):
        self.sim = sim
        self.params = params
        self.router_id = router_id
        self.links = {}              # port -> Link
        self.node_interface = None   # NodeInterface on LOCAL_PORT
        self.table = {}              # dst node -> port (normal lanes)
        self.discard_ports = set()   # isolation during interconnect recovery
        self.failed = False
        self.stats = RouterStats()
        self.trace = None            # telemetry recorder (None: disabled)
        self.fault_lineage = None    # (root id, inject eid) when failed

        self._inputs = {}            # port -> its _Buffers, indexed by lane
        self._outputs = {}           # link port -> _Output
        self._local_busy_until = 0.0 # the local port's output (the NI)
        self._local_timer_at = 0.0   # when its pending busy timer fires
        self._scan_order = ()        # every _Buffer, in scan order
        self._occupied = 0           # bits of the non-empty buffers
        self._idle = False           # started and no scan on the heap
        self._dirty = False

    # -- wiring ---------------------------------------------------------------

    def _add_inputs(self, port, feeder):
        """One buffer per lane on ``port``; ``feeder`` is woken when one
        of them frees a slot it was refused."""
        buffers = tuple(_Buffer(port, lane, self.params, feeder)
                        for lane in sorted(Lane))
        self._inputs[port] = buffers
        self._rebuild_scan_order()
        return buffers

    def attach_link(self, port, link):
        self.links[port] = link
        downstream, downstream_port = link.other_side(self.router_id)
        inputs = self._add_inputs(port, downstream.notify)
        output = self._outputs[port] = _Output(link, downstream)
        # Each end's output feeds the other end's input buffers, so both
        # directions are resolved when the second end is wired.
        far = downstream._outputs.get(downstream_port)
        if far is not None:
            output.targets = downstream._inputs[downstream_port]
            far.targets = inputs

    def attach_node(self, node_interface):
        self.node_interface = node_interface
        node_interface.router = self
        self._add_inputs(LOCAL_PORT, node_interface.notify_space)

    def _rebuild_scan_order(self):
        """Buffers only appear at wiring time, so the deterministic scan
        order, and each buffer's bit in the occupancy mask, are computed
        here instead of re-sorting on every wakeup."""
        self._scan_order = tuple(
            buffer for port in sorted(self._inputs)
            for buffer in self._inputs[port])
        for pos, buffer in enumerate(self._scan_order):
            buffer.bit = 1 << pos

    def start(self):
        """Schedule the first forwarding scan."""
        self.sim.schedule(0.0, self._run)

    # -- arrivals -----------------------------------------------------------------

    def _note_drop(self, reason, packet, lineage=None):
        """Emit a telemetry event for a dropped packet (stats already
        incremented by the caller).  ``lineage`` is the (root, inject eid)
        of the component fault responsible, merged into the causal edge."""
        tr = self.trace
        if tr is not None:
            root, cause = packet.root_cause, packet.cause_eid
            if lineage is not None:
                if root is None:
                    root = lineage[0]
                cause = merge_causes(cause, lineage[1])
            tr.emit("pkt", "drop", node=self.router_id, cause=cause,
                    reason=reason, kind=str(packet.kind), src=packet.src,
                    dst=packet.dst, lane=packet.lane.name, uid=packet.uid,
                    root=root, line=_payload_line(packet))

    def receive(self, packet, buffer):
        """A transfer completed: enqueue the packet at input ``buffer``,
        returning the credit its sender reserved.  A failed router sinks
        the packet; its credits are never read again."""
        if self.failed:
            self.stats.dropped_failed += 1
            self._note_drop("failed_router", packet, self.fault_lineage)
            return
        buffer.reserved -= 1
        if packet.source_route is not None:
            packet.trace_ports.append(buffer.port)
        packet.hops += 1
        self._enqueue(buffer, packet)

    def _enqueue(self, buffer, packet):
        """Queue ``packet`` at ``buffer`` and wake the scan."""
        queue = buffer.queue
        if not queue:
            buffer.head_since = self.sim.now
        queue.append(packet)
        self._occupied |= buffer.bit
        self.notify()

    # -- local injection ----------------------------------------------------------

    def inject_local(self, packet):
        """Node controller pushes a packet into the router's local port."""
        if self.failed:
            self.stats.dropped_failed += 1
            self._note_drop("failed_router", packet, self.fault_lineage)
            return True
        buffer = self._inputs[LOCAL_PORT][packet.lane]
        if len(buffer.queue) + buffer.reserved >= buffer.capacity:
            buffer.feeder_waiting = True
            return False
        self._enqueue(buffer, packet)
        return True

    # -- forwarding engine -----------------------------------------------------------

    def notify(self):
        """Something changed: put one scan on the heap unless one is
        already there.  Before :meth:`start`, while a scan is pending and
        from inside the scan itself this only sets ``_dirty``."""
        self._dirty = True
        if self._idle:
            self._idle = False
            self.sim.schedule(0.0, self._run)

    def _run(self):
        self._dirty = False
        if not self.failed:
            self._scan_once()
        if self._dirty:
            # New arrivals or credits while scanning: scan again.
            self.sim.schedule(0.0, self._run)
        else:
            self._idle = True

    _run.profile_label = "routerN"

    def _scan_once(self):
        """One pass over the input buffers in scan order, forwarding
        whatever can move.  Only occupied buffers are visited: the mask is
        re-read after each one, so a buffer that fills mid-scan at a later
        position is still reached, as a walk over every buffer would."""
        now = self.sim.now
        try_forward = self._try_forward
        order = self._scan_order
        pos = 0
        while True:
            pending = self._occupied >> pos
            if not pending:
                return
            pos += (pending & -pending).bit_length() - 1
            buffer = order[pos]
            queue = buffer.queue
            while queue:
                if try_forward(queue[0], buffer, now):
                    queue.popleft()
                    if queue:
                        buffer.head_since = now
                    else:
                        self._occupied &= ~buffer.bit
                    if buffer.feeder_waiting:
                        buffer.feeder_waiting = False
                        buffer.wake_feeder()
                    continue
                if buffer.recovery:
                    self._maybe_stall_discard(buffer, now)
                break
            pos += 1

    def _maybe_stall_discard(self, buffer, now):
        """Discard a long-stalled recovery-lane head packet (paper §4.1)."""
        stalled_for = now - buffer.head_since
        threshold = self.params.recovery_stall_discard
        if stalled_for >= threshold:
            queue = buffer.queue
            packet = queue.popleft()
            self.stats.dropped_stall += 1
            self._note_drop("stall", packet)
            if queue:
                buffer.head_since = now
            else:
                self._occupied &= ~buffer.bit
            if buffer.feeder_waiting:
                buffer.feeder_waiting = False
                buffer.wake_feeder()
            self.notify()
        else:
            # Re-check when the threshold would be crossed.
            self.sim.schedule(threshold - stalled_for, self.notify)

    def _try_forward(self, packet, buffer, now):
        """Move the head packet of input ``buffer`` one step.

        Returns True when it left the buffer (forwarded, delivered, handled
        by the router or dropped) and False when it is blocked.  The checks
        run in a fixed order, so an intermittent link draws its RNG only
        for a packet that would otherwise cross it.
        """
        route = packet.source_route
        if route is not None:
            index = packet.route_index
            out_port = route[index] if index < len(route) else LOCAL_PORT
        elif packet.dst == self.router_id:
            out_port = LOCAL_PORT
        else:
            out_port = self.table.get(packet.dst)
            if out_port is None:
                self.stats.dropped_unroutable += 1
                self._note_drop("unroutable", packet)
                return True

        if out_port == LOCAL_PORT and packet.kind in _ROUTER_KINDS:
            # Router-addressed packets are handled by the router hardware
            # itself, even when the local port is in the discard set — the
            # recovery algorithm must stay able to probe and reprogram a
            # router whose node it has isolated.
            if packet.kind == ROUTER_PROBE:
                self._answer_probe(packet)
            else:
                self._apply_control(packet)
            return True

        if out_port in self.discard_ports:
            self.stats.dropped_discard += 1
            self._note_drop("discard_port", packet)
            return True

        if out_port == LOCAL_PORT:
            return self._deliver_local(packet, now)

        if out_port == buffer.port and route is None:
            # Table inconsistency during reconfiguration: drop rather than
            # bounce forever.
            self.stats.dropped_unroutable += 1
            self._note_drop("bounce", packet)
            return True

        output = self._outputs.get(out_port)
        if output is None:
            self.stats.dropped_unroutable += 1
            self._note_drop("no_link", packet)
            return True

        busy_until = output.busy_until
        if busy_until > now:
            if output.timer_at != busy_until:
                output.timer_at = busy_until
                self.sim.schedule(busy_until - now, self.notify)
            return False

        link = output.link
        if link.failed:
            # Black hole: the packet is sunk (paper §4.1).
            self.stats.dropped_link += 1
            self._note_drop("failed_link", packet, link.fault_lineage)
            return True

        if link.should_drop(packet):
            # Intermittent link fault: the packet is sunk mid-crossing.
            self.stats.dropped_intermittent += 1
            self._note_drop("intermittent", packet, link.fault_lineage)
            return True

        # Credit: reserve a downstream slot (a failed router sinks anything
        # sent at it, so it always has room).
        downstream = output.downstream
        target = output.targets[buffer.lane]
        if not downstream.failed:
            if len(target.queue) + target.reserved >= target.capacity:
                target.feeder_waiting = True
                return False
            target.reserved += 1

        if route is not None:
            packet.route_index += 1
        params = self.params
        serialization = packet.flits * params.flit_time
        output.busy_until = now + serialization
        record = _Transfer(packet, link, downstream, target)
        link.in_flight.append(record)
        self.sim.schedule(params.hop_latency + serialization,
                          self._complete_transfer, record)
        self.stats.forwarded += 1
        return True

    def _complete_transfer(self, record):
        record.link.in_flight.remove(record)
        record.downstream.receive(record.packet, record.buffer)

    # -- local delivery -------------------------------------------------------------

    def _deliver_local(self, packet, now):
        interface = self.node_interface
        if interface is None:
            self.stats.dropped_unroutable += 1
            self._note_drop("no_interface", packet)
            return True
        if not interface.can_accept():
            return False
        busy_until = self._local_busy_until
        if busy_until > now:
            if self._local_timer_at != busy_until:
                self._local_timer_at = busy_until
                self.sim.schedule(busy_until - now, self.notify)
            return False
        interface.reserve()
        params = self.params
        serialization = packet.flits * params.flit_time
        self._local_busy_until = now + serialization
        self.sim.schedule(params.hop_latency + serialization,
                          interface.complete_delivery, packet)
        self.stats.delivered_local += 1
        return True

    def _answer_probe(self, probe):
        """Reply to a router probe in hardware (always, while powered)."""
        self.stats.probes_answered += 1
        reply = Packet(
            src=self.router_id, dst=probe.src,
            lane=probe.lane, kind=ROUTER_PROBE_REPLY,
            payload={"router_id": self.router_id,
                     "probe_uid": probe.uid,
                     "echo": probe.payload},
            flits=2,
            source_route=list(reversed(probe.trace_ports)))
        reply.root_cause = probe.root_cause
        reply.cause_eid = probe.cause_eid
        self._inject_reply(reply)

    def _apply_control(self, packet):
        """Apply a recovery control command to this router's hardware."""
        payload = packet.payload or {}
        if packet.kind == ROUTER_SET_DISCARD:
            self.set_discard_ports(payload.get("ports", ()))
        else:
            self.program_table(payload.get("table", {}))
        ack = Packet(
            src=self.router_id, dst=packet.src,
            lane=packet.lane, kind=ROUTER_CTRL_ACK,
            payload={"router_id": self.router_id,
                     "ctrl_uid": packet.uid,
                     "ctrl_key": payload.get("ctrl_key")},
            flits=2,
            source_route=list(reversed(packet.trace_ports)))
        ack.root_cause = packet.root_cause
        ack.cause_eid = packet.cause_eid
        self._inject_reply(ack)

    def _inject_reply(self, reply):
        """Queue a router-generated reply as if it came from the local port."""
        reply.uid = next(self.sim.packet_uids)
        buffer = self._inputs[LOCAL_PORT][reply.lane]
        if len(buffer.queue) + buffer.reserved < buffer.capacity:
            self._enqueue(buffer, reply)
        # else: reply lost under extreme congestion; the sender will retry.

    # -- failure & reconfiguration ------------------------------------------------------

    def fail(self, lineage=None):
        """Router failure: lose all buffered packets, sink all arrivals."""
        if self.failed:
            return
        self.failed = True
        if lineage is not None:
            self.fault_lineage = lineage
        lost = 0
        for buffer in self._scan_order:
            queue = buffer.queue
            self.stats.dropped_failed += len(queue)
            lost += len(queue)
            queue.clear()
        self._occupied = 0
        tr = self.trace
        if tr is not None:
            tr.emit("pkt", "drop", node=self.router_id,
                    cause=None if lineage is None else lineage[1],
                    reason="router_fail", count=lost,
                    root=None if lineage is None else lineage[0])

    def set_discard_ports(self, ports):
        self.discard_ports = set(ports)
        self.notify()

    def program_table(self, table):
        self.table = dict(table)
        self.notify()

    def buffered_packet_count(self):
        return sum(len(b.queue) for b in self._scan_order)

    def __repr__(self):
        state = "FAILED" if self.failed else "up"
        return "<Router %d (%s) buffered=%d>" % (
            self.router_id, state, self.buffered_packet_count())


class _Buffer:
    """One ``(port, lane)`` input buffer: its packets, the credits handed
    to its feeder, and its place in the scan."""

    __slots__ = ("port", "lane", "queue", "capacity", "reserved",
                 "head_since", "bit", "recovery", "wake_feeder",
                 "feeder_waiting")

    def __init__(self, port, lane, params, wake_feeder):
        self.port = port
        self.lane = lane
        self.queue = deque()
        self.recovery = lane in _RECOVERY_LANES
        self.capacity = (params.recovery_buffer_capacity if self.recovery
                         else params.buffer_capacity)
        self.reserved = 0            # credits handed upstream, in flight
        self.head_since = 0.0        # when the head packet got to the front
        self.bit = 0                 # its bit in Router._occupied
        #: whoever feeds this buffer, woken when a slot frees after it was
        #: refused one: the router across the link, or the node
        #: interface's pump
        self.wake_feeder = wake_feeder
        self.feeder_waiting = False  # refused a slot; wake it on a pop


class _Output:
    """One link port's output side."""

    __slots__ = ("link", "downstream", "busy_until", "timer_at", "targets")

    def __init__(self, link, downstream):
        self.link = link
        self.downstream = downstream
        self.busy_until = 0.0
        self.timer_at = 0.0          # when its pending busy timer fires
        #: the downstream router's input buffers on this link, by lane
        self.targets = ()


class _Transfer:
    """A packet in flight across a link, toward its input buffer."""

    __slots__ = ("packet", "link", "downstream", "buffer")

    def __init__(self, packet, link, downstream, buffer):
        self.packet = packet
        self.link = link
        self.downstream = downstream
        self.buffer = buffer
