"""The MAGIC programmable node controller.

MAGIC sits between the processor (PI), the network (NI), the node's memory
and its I/O devices.  A single dispatch process services both interfaces,
running a *handler* per message with a cost model taken from the paper
(120 ns for the common remote-read handler).

Fault-containment features implemented here (paper Table 6.1):

* **node map** — checked before every outgoing request; references to failed
  homes are terminated immediately with a bus error (§3.1, §3.2);
* **exception-vector remap** — low physical addresses are served from the
  node-local replica (§3.2);
* **firewall** — per-4KB-page write ACLs checked on exclusive fetches (§3.3);
* **range check** — the MAGIC-protected region of local memory rejects all
  processor writes (§3.3);
* **uncached I/O containment** — uncached accesses from outside the local
  failure unit are bus-errored (§3.3);
* **memory-operation timeouts** and **NAK counters** — the failure detectors
  that trigger recovery (§4.2);
* **truncated-message dispatch** — a truncated packet triggers recovery
  (§4.2);
* **firmware assertions** — protocol invariant checks that trigger recovery
  instead of corrupting state (§4.2);
* **drain mode** — during interconnect recovery, incoming requests are
  fielded without generating replies, and the delivery timestamps feed the
  tau-quiet drain agreement (§4.4);
* **recovery services** — cache flush, directory scan/reset, incoherent-line
  marking, and the saved-uncached-read buffer (§4.2, §4.5).
"""

from repro.common.errors import BusError
from repro.common.types import AccessKind, BusErrorKind, DirState
from repro.coherence.directory import Directory
from repro.coherence.messages import MessageKind, make_packet
from repro.coherence.protocol import ProtocolEngine
from repro.interconnect.packet import (
    ROUTER_CTRL_ACK,
    ROUTER_PROBE_REPLY,
    merge_causes,
)
from repro.node.iodevice import IODevice
from repro.node.memory import NodeMemory, initial_value
from repro.sim import AnyOf, Channel, Event


class NullHooks:
    """Default no-op instrumentation hooks (the oracle overrides these)."""

    def on_store(self, node_id, line_address, value):
        pass

    def on_put_sent(self, node_id, line_address, value):
        pass

    def on_put_absorbed(self, home_id, line_address):
        pass

    def on_line_marked_incoherent(self, home_id, line_address):
        pass

    def on_recovery_triggered(self, node_id, reason):
        pass

    def on_bus_error(self, node_id, error):
        pass


class MagicStats:
    def __init__(self):
        self.handlers_run = 0
        self.naks_sent = 0
        self.naks_received = 0
        self.bus_errors = 0
        self.timeouts = 0
        self.nak_overflows = 0
        self.truncated_received = 0
        self.stray_messages = 0
        self.firewall_rejections = 0
        self.drained_messages = 0


class _Outstanding:
    """One in-flight PI request awaiting its reply."""

    __slots__ = ("op", "event", "kind", "line", "nak_count", "timer",
                 "request_payload", "dst", "invalidated")

    def __init__(self, op, event, kind, line, payload, dst):
        self.op = op
        self.event = event
        self.kind = kind
        self.line = line
        self.nak_count = 0
        self.timer = None
        self.request_payload = payload
        self.dst = dst
        self.invalidated = False   # INVAL crossed the fill in flight


class Magic:
    """Node controller for one FLASH node."""

    def __init__(self, sim, params, node_id, address_map, network,
                 hooks=None, firewall_enabled=True):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self.address_map = address_map
        self.network = network
        self.ni = network.interface(node_id)
        self.router = network.router(node_id)
        self.hooks = hooks or NullHooks()
        self.firewall_enabled = firewall_enabled

        self.memory = NodeMemory(node_id, address_map)
        base = address_map.node_base(node_id)
        self.directory = Directory(
            node_id, base, address_map.mem_per_node, address_map.line_size)
        self.io_device = IODevice(node_id)
        self.cache = None          # set by Node (the processor's L2)

        self.node_map = set(range(address_map.num_nodes))
        self.failure_unit = frozenset({node_id})
        self.firewall = {}         # page address -> frozenset of writer nodes

        self.protocol = ProtocolEngine(self)

        self.pi_queue = Channel(sim, name="magic%d.pi" % node_id)
        self.recovery_inbox = Channel(sim, name="magic%d.rec" % node_id)
        self.os_inbox = Channel(sim, name="magic%d.os" % node_id)
        self.outstanding = {}      # line or ("uc", seq) -> _Outstanding
        self._uc_seq = 0
        self.pending_uc = None     # saved uncached op across recovery (§4.2)

        self.failed = False
        self.wedged = False
        self.drain_mode = False
        self.in_recovery = False
        self.suppress_detection = False
        self.last_normal_delivery = 0.0

        #: callback installed by the recovery manager:
        #: fn(node_id, reason) -> None
        self.recovery_trigger = None
        self.stats = MagicStats()
        self.trace = None           # telemetry recorder (None: disabled)
        self._proc = None

        # Causal context (forensics, DESIGN.md §11).  ``_cause``/
        # ``_cause_root`` hold the lineage of the packet currently being
        # handled, so messages the handler fans out inherit provenance.
        # ``fault_lineage`` is set by the injector when this controller
        # itself is the fault; ``recovery_cause`` points at the current
        # episode.begin while this node runs recovery.  All pure data —
        # with telemetry off these stay None and nothing reads them on the
        # hot path beyond plain attribute loads.
        self._cause = None
        self._cause_root = None
        self.fault_lineage = None
        self.recovery_cause = None
        self.last_trigger_cause = None

    # ------------------------------------------------------------------ wiring

    def start(self):
        self._proc = self.sim.spawn(
            self._dispatch_loop(), name="magic%d" % self.node_id)

    def set_failure_unit(self, node_ids):
        self.failure_unit = frozenset(node_ids)

    def set_firewall(self, page_address, writer_nodes):
        """Grant write (fetch-exclusive) access to a page (paper §3.3)."""
        self.firewall[page_address] = frozenset(writer_nodes)

    def firewall_allows(self, page_address, writer_node):
        if not self.firewall_enabled:
            return True
        allowed = self.firewall.get(page_address)
        if allowed is None:
            return True      # unconfigured pages are open (boot state)
        return writer_node in allowed

    # ------------------------------------------------------------- dispatch loop

    def _dispatch_loop(self):
        while True:
            if self.failed:
                yield Event(self.sim)   # never resumes: controller is dead
                return
            if self.wedged:
                # Firmware infinite loop: stop accepting packets (§3.1).
                yield Event(self.sim)
                return
            packet = self.ni.try_receive()
            if packet is not None:
                self._cause = packet.cause_eid
                self._cause_root = packet.root_cause
                cost = self._handle_network(packet)
                self._cause = None
                self._cause_root = None
                self.stats.handlers_run += 1
                yield cost
                continue
            request = self.pi_queue.try_get()
            if request is not None:
                yield self._handle_pi(request)
                continue
            yield AnyOf([self.ni.inbox.watch(), self.pi_queue.watch()])

    # ------------------------------------------------------------ network side

    def _handle_network(self, packet):
        if packet.truncated:
            # A truncated packet proves a hardware fault occurred (§4.2).
            self.stats.truncated_received += 1
            detect_eid = None
            tr = self.trace
            if tr is not None:
                detect_eid = tr.emit("detect", "truncated",
                                     node=self.node_id, cause=self._cause,
                                     kind=str(packet.kind), src=packet.src,
                                     root=self._cause_root)
            self._fail_pending_access_with(
                BusErrorKind.TRUNCATED_DATA, packet)
            self.trigger_recovery("truncated_packet", cause=detect_eid)
            return self.params.short_handler_time

        kind = packet.kind
        if isinstance(kind, MessageKind):
            if kind in _RECOVERY_KINDS:
                return self._handle_recovery_packet(packet)
            if self.drain_mode:
                return self._handle_drained(packet)
            if kind == MessageKind.OS_MSG:
                self.os_inbox.put(packet)
                return self.params.handler_time
            if kind in _REPLY_KINDS:
                return self._handle_reply(packet)
            if kind == MessageKind.INVAL and packet.payload is not None:
                # The directory can invalidate us between the moment the
                # old owner's SHARING_WB registered us as a sharer and the
                # moment its DATA_SHARED actually arrives.  The fill that
                # crosses this INVAL must not install a stale SHARED copy:
                # poison the outstanding entry so the data completes the
                # load once and is discarded (use-once semantics).
                pending = self.outstanding.get(packet.payload.get("line"))
                if pending is not None and pending.kind == MessageKind.GET:
                    pending.invalidated = True
            return self.protocol.handle(packet)

        # String-kind packets are router-generated replies (probe replies,
        # control acks): they belong to the recovery algorithm.
        if kind in _ROUTER_REPLY_KINDS:
            self.recovery_inbox.put(packet)
            return self.params.short_handler_time

        self.stats.stray_messages += 1
        return self.params.short_handler_time

    def _handle_recovery_packet(self, packet):
        if packet.kind == MessageKind.PING and not self.in_recovery:
            self.trigger_recovery("ping", cause=self._cause)
        self.recovery_inbox.put(packet)
        return self.params.short_handler_time

    def _handle_drained(self, packet):
        """Field a message during drain mode without generating replies
        (paper §4.4)."""
        self.last_normal_delivery = self.sim.now
        self.stats.drained_messages += 1
        kind = packet.kind
        if kind == MessageKind.PUT and packet.payload is not None:
            # Writebacks that make it home during the drain still preserve
            # their data: this is precisely why traffic is drained rather
            # than dropped.
            line = packet.payload["line"]
            if self.directory.owns(line):
                entry = self.directory.entry(line)
                self.memory.write_line(line, packet.payload["value"])
                entry.memory_valid = True
                if entry.owner == packet.src:
                    entry.owner = None
                self.hooks.on_put_absorbed(self.node_id, line)
        elif kind == MessageKind.DATA_EXCL and packet.payload is not None:
            # An exclusive grant for a request that recovery NAK'd: the
            # packet carries the line's valid copy and we now own a line we
            # never asked to keep.  Return it home as a writeback so the
            # directory scan does not mark it incoherent — this is what
            # keeps intra-unit traffic lossless when the fault was
            # elsewhere (§3.3).
            self._return_orphan_grant(packet)
        elif kind == MessageKind.UC_DATA or kind == MessageKind.UC_ACK:
            # The saved-buffer mechanism for pending uncached reads (§4.2).
            self._capture_uc_reply(packet)
        return self.params.handler_time

    def _return_orphan_grant(self, packet):
        line = packet.payload["line"]
        self.send_put(line, packet.payload["value"])

    # -------------------------------------------------------------- reply side

    def _handle_reply(self, packet):
        kind = packet.kind
        payload = packet.payload or {}
        if kind in (MessageKind.UC_DATA, MessageKind.UC_ACK):
            return self._complete_uncached(packet)

        line = payload.get("line")
        pending = self.outstanding.get(line)
        if pending is None:
            if kind == MessageKind.DATA_EXCL:
                # A straggler exclusive grant for a long-canceled request:
                # never strand ownership — send the data home.
                self._return_orphan_grant(packet)
                return self.params.handler_time
            self.stats.stray_messages += 1
            return self.params.short_handler_time

        if kind == MessageKind.NAK:
            return self._handle_nak(pending)
        if kind == MessageKind.BUS_ERROR_REPLY:
            self._finish_outstanding(line)
            error = BusError(payload["error_kind"], payload.get(
                "address", line), payload.get("detail", ""))
            self.stats.bus_errors += 1
            self.hooks.on_bus_error(self.node_id, error)
            pending.event.trigger(("error", error))
            return self.params.handler_time
        if kind == MessageKind.DATA_SHARED:
            self._finish_outstanding(line)
            self._fill_and_complete(pending, payload["value"],
                                    exclusive=False)
            return self.params.handler_time
        if kind == MessageKind.DATA_EXCL:
            self._finish_outstanding(line)
            self._fill_and_complete(pending, payload["value"],
                                    exclusive=True)
            return self.params.handler_time
        self.stats.stray_messages += 1
        return self.params.short_handler_time

    def _fill_and_complete(self, pending, value, exclusive):
        from repro.common.types import CacheState
        if pending.invalidated and not exclusive:
            # Invalidated while the fill was in flight: the load is
            # ordered before the conflicting store, so the value may
            # satisfy it exactly once, but the line must not be cached.
            pending.event.trigger(("ok", value))
            return
        state = CacheState.EXCLUSIVE if exclusive else CacheState.SHARED
        victim = self.cache.fill(pending.line, value, state)
        if victim is not None:
            self._write_back_victim(*victim)
        result_value = value
        op = pending.op
        if (getattr(op, "kind", None) == AccessKind.STORE
                and not getattr(op, "speculative", False)):
            # Speculative stores fetch the line exclusive but never write
            # it (§3.3) — the data in the cache stays the memory copy.
            self.cache.write(pending.line, op.value)
            self.hooks.on_store(self.node_id, pending.line, op.value)
            result_value = op.value
        pending.event.trigger(("ok", result_value))

    def _write_back_victim(self, line_address, cache_line):
        from repro.common.types import CacheState
        if cache_line.state != CacheState.EXCLUSIVE:
            return   # clean victims are dropped silently
        self.send_put(line_address, cache_line.value)

    def send_put(self, line_address, value):
        """Send a dirty line home; the message carries the only valid copy."""
        home = self.address_map.home_of(line_address)
        self.hooks.on_put_sent(self.node_id, line_address, value)
        if home == self.node_id:
            # Local home: absorb directly (no network traversal).
            entry = self.directory.entry(line_address)
            self.memory.write_line(line_address, value)
            entry.memory_valid = True
            if entry.owner == self.node_id:
                entry.owner = None
            if entry.state == DirState.EXCLUSIVE:
                entry.unlock(DirState.UNOWNED)
            self.hooks.on_put_absorbed(self.node_id, line_address)
            return
        self.send_message(home, MessageKind.PUT,
                          {"line": line_address, "value": value})

    def _handle_nak(self, pending):
        self.stats.naks_received += 1
        pending.nak_count += 1
        if pending.nak_count >= self.params.nak_counter_limit:
            # NAK counter overflow: likely deadlock after a fault (§4.2).
            self.stats.nak_overflows += 1
            detect_eid = None
            tr = self.trace
            if tr is not None:
                # The overflow itself descends from the NAK being handled;
                # the silent component that wedged the line is attributed
                # via the network's best-effort heuristic.
                root, cause = self._cause_root, self._cause
                lineage = self.network.fault_lineage_of(pending.dst)
                if lineage is not None:
                    if root is None:
                        root = lineage[0]
                    cause = merge_causes(cause, lineage[1])
                detect_eid = tr.emit("detect", "nak_overflow",
                                     node=self.node_id, cause=cause,
                                     line=pending.line,
                                     naks=pending.nak_count, root=root)
            self.trigger_recovery("nak_overflow", cause=detect_eid)
            return self.params.short_handler_time
        self.sim.schedule(
            self.params.nak_retry_interval, self._retry, pending)
        return self.params.short_handler_time

    def _retry(self, pending):
        if self.failed or self.in_recovery:
            return
        if self.outstanding.get(pending.line) is not pending:
            return
        # A retry is a fresh request epoch: the home cannot service it
        # until the old INVAL's ack has been consumed, so any poison
        # from the previous epoch is stale.
        pending.invalidated = False
        self._send_request_packet(pending)

    # ---------------------------------------------------------------- PI side

    def pi_request(self, op):
        """Processor issues a memory operation; returns a completion event.

        The event triggers with ``("ok", value)``, ``("error", BusError)``
        or — when recovery tears the request down — never (the processor is
        interrupted instead and reissues after recovery, §4.2).
        """
        event = Event(self.sim, name="pi%d" % self.node_id)
        self.pi_queue.put((op, event))
        return event

    def _handle_pi(self, request):
        op, event = request
        if self.in_recovery:
            # Memory system suspended: the issuer must retry after recovery.
            event.trigger(("requeue", None))
            return self.params.short_handler_time
        kind = op.kind
        if kind in (AccessKind.LOAD, AccessKind.STORE):
            return self._pi_cacheable(op, event)
        if kind in (AccessKind.UNCACHED_LOAD, AccessKind.UNCACHED_STORE):
            return self._pi_uncached(op, event)
        if kind == AccessKind.FLUSH:
            return self._pi_flush(op, event)
        raise AssertionError("unknown PI op %r" % (op,))

    def _pi_cacheable(self, op, event):
        address = op.address
        if self.address_map.is_vector_range(address):
            # Remap: serve from the node-local vector replica (§3.2).
            if op.kind == AccessKind.STORE:
                error = BusError(BusErrorKind.RANGE_CHECK, address,
                                 "exception vectors are read-only")
                return self._pi_bus_error(event, error)
            event.trigger(("ok", self.memory.read_vector(address)))
            return self.params.memory_access

        line = self.address_map.line_address(address)

        if (op.kind == AccessKind.STORE
                and self.address_map.is_magic_region(address)
                and self.address_map.home_of(address) == self.node_id):
            # Range check: local MAGIC region rejects processor writes (§3.3).
            error = BusError(BusErrorKind.RANGE_CHECK, address,
                             "MAGIC-protected region")
            return self._pi_bus_error(event, error)

        home = self.address_map.home_of(line)
        if home not in self.node_map:
            # Node map check: the home has failed; terminate immediately
            # rather than stalling the processor (§3.1, §3.2).
            error = BusError(BusErrorKind.INACCESSIBLE_NODE, address,
                             "home node %d unavailable" % home)
            return self._pi_bus_error(event, error)

        message = (MessageKind.GET if op.kind == AccessKind.LOAD
                   else MessageKind.GETX)
        payload = {"line": line, "requester": self.node_id}
        pending = _Outstanding(op, event, message, line, payload, home)
        self.outstanding[line] = pending
        self._send_request_packet(pending)
        return self.params.short_handler_time

    def _pi_bus_error(self, event, error):
        self.stats.bus_errors += 1
        self.hooks.on_bus_error(self.node_id, error)
        event.trigger(("error", error))
        return self.params.short_handler_time

    def _send_request_packet(self, pending):
        pending.timer = self.sim.schedule(
            self.params.memory_op_timeout, self._request_timeout, pending)
        if pending.dst == self.node_id:
            # Local home: hand straight to the protocol engine.
            packet = make_packet(self.params, self.node_id, self.node_id,
                                 pending.kind, dict(pending.request_payload))
            packet.root_cause, packet.cause_eid = self.current_lineage()
            self.ni.inbox.put(packet)
            return
        self.send_message(pending.dst, pending.kind,
                          dict(pending.request_payload))

    def _request_timeout(self, pending):
        if self.failed or self.outstanding.get(pending.line) is not pending:
            return
        # Memory operation timeout: the home or the path to it failed (§4.2).
        self.stats.timeouts += 1
        detect_eid = None
        tr = self.trace
        if tr is not None:
            # A timeout observes nothing (§4.2) — attribute it to the
            # target's recorded fault, or the latest injection (heuristic).
            lineage = self.network.fault_lineage_of(pending.dst)
            detect_eid = tr.emit(
                "detect", "timeout", node=self.node_id,
                cause=None if lineage is None else lineage[1],
                line=pending.line, dst=pending.dst,
                root=None if lineage is None else lineage[0])
        self.trigger_recovery("memory_op_timeout", cause=detect_eid)

    def _finish_outstanding(self, key):
        pending = self.outstanding.pop(key, None)
        if pending is not None and pending.timer is not None:
            # Dropping the handle lets the engine's lazy-deletion pass
            # reclaim the dead heap entry without anyone re-cancelling it.
            self.sim.cancel(pending.timer)
            pending.timer = None
        return pending

    # ------------------------------------------------------------ uncached ops

    def _pi_uncached(self, op, event):
        address = op.address
        home = self.address_map.home_of(address)
        if home not in self.node_map:
            error = BusError(BusErrorKind.INACCESSIBLE_NODE, address,
                             "home node %d unavailable" % home)
            return self._pi_bus_error(event, error)
        if home == self.node_id:
            value = self._perform_local_uncached(op)
            event.trigger(("ok", value))
            return self.params.memory_access
        kind = (MessageKind.UC_READ
                if op.kind == AccessKind.UNCACHED_LOAD
                else MessageKind.UC_WRITE)
        self._uc_seq += 1
        key = ("uc", self._uc_seq)
        payload = {"address": address, "requester": self.node_id,
                   "uc_key": key,
                   "value": getattr(op, "value", None)}
        pending = _Outstanding(op, event, kind, key, payload, home)
        self.outstanding[key] = pending
        self.pending_uc = {"key": key, "op": op, "saved": None,
                           "arrived": False}
        pending.timer = self.sim.schedule(
            self.params.memory_op_timeout, self._request_timeout, pending)
        self.send_message(home, kind, payload)
        return self.params.short_handler_time

    def _perform_local_uncached(self, op):
        address = op.address
        if self.address_map.is_io_region(address):
            register = address - self.address_map.io_region_start(self.node_id)
            if op.kind == AccessKind.UNCACHED_LOAD:
                return self.io_device.read(register)
            self.io_device.write(register, op.value)
            return None
        line = self.address_map.line_address(address)
        if op.kind == AccessKind.UNCACHED_LOAD:
            return self.memory.read_line(line)
        self.memory.write_line(line, op.value)
        return None

    def _complete_uncached(self, packet):
        payload = packet.payload or {}
        key = payload.get("uc_key")
        pending = self.outstanding.get(key)
        if pending is None:
            self.stats.stray_messages += 1
            return self.params.short_handler_time
        self._finish_outstanding(key)
        if self.pending_uc is not None and self.pending_uc["key"] == key:
            self.pending_uc = None
        if payload.get("error_kind") is not None:
            error = BusError(payload["error_kind"], payload.get(
                "address", 0), payload.get("detail", ""))
            self.stats.bus_errors += 1
            self.hooks.on_bus_error(self.node_id, error)
            pending.event.trigger(("error", error))
        else:
            pending.event.trigger(("ok", payload.get("value")))
        return self.params.handler_time

    def _capture_uc_reply(self, packet):
        """Save the result of a pending uncached read that arrives during
        recovery into an internal buffer (§4.2)."""
        payload = packet.payload or {}
        key = payload.get("uc_key")
        if self.pending_uc is not None and self.pending_uc["key"] == key:
            self.pending_uc["saved"] = payload.get("value")
            self.pending_uc["arrived"] = True

    def consume_saved_uncached(self, op):
        """After recovery, emulate the pending uncached instruction using
        the saved buffer rather than reissuing it (exactly-once, §4.2).

        Returns ``(True, value)`` if the reply was captured, else
        ``(False, None)`` (the op was never sent or its home died with our
        failure unit).
        """
        if (self.pending_uc is not None
                and self.pending_uc["op"] is op
                and self.pending_uc["arrived"]):
            value = self.pending_uc["saved"]
            self.pending_uc = None
            return True, value
        return False, None

    # ------------------------------------------------------------------ flush

    def _pi_flush(self, op, event):
        line = self.address_map.line_address(op.address)
        value = self.cache.invalidate(line)
        if value is not None:
            self.send_put(line, value)
        event.trigger(("ok", None))
        return self.params.short_handler_time

    # ----------------------------------------------------------------- sending

    def current_lineage(self):
        """(root id, parent eid) stamped onto the next outgoing packet.

        Priority: a fault injected into this controller (everything a rogue
        firmware sends is tainted, §3.3) > the packet currently being
        handled (fan-out inherits provenance) > the recovery episode this
        node is participating in.
        """
        lineage = self.fault_lineage
        if lineage is not None:
            return lineage
        if self._cause is not None or self._cause_root is not None:
            return (self._cause_root, self._cause)
        lineage = self.recovery_cause
        if lineage is not None:
            return lineage
        return _NO_LINEAGE

    def send_message(self, dst, kind, payload, lane=None, source_route=None,
                     delay=0.0, lineage=None):
        """Send a protocol or recovery message; honors the node map.

        ``delay`` models handler work that happens *before* the reply
        leaves (e.g. the firewall check on intercell writes, §6.2) and is
        therefore visible in the requester's latency.
        """
        if self.failed:
            return
        if lineage is None:
            lineage = self.current_lineage()
        if delay:
            # Capture the causal context now; the handler that justified
            # the delayed send is long gone when the packet leaves.
            self.sim.schedule(delay, self.send_message, dst, kind, payload,
                              lane, source_route, 0.0, lineage)
            return
        if dst == self.node_id and source_route is None:
            packet = make_packet(self.params, self.node_id, dst, kind,
                                 payload, lane=lane)
            packet.root_cause, packet.cause_eid = lineage
            self.ni.inbox.put(packet)
            return
        if (lane is None and dst is not None and dst not in self.node_map):
            # Node map: never send normal traffic toward failed nodes (§3.1).
            return
        packet = make_packet(self.params, self.node_id, dst, kind, payload,
                             lane=lane, source_route=source_route)
        packet.root_cause, packet.cause_eid = lineage
        self.ni.send(packet)

    # -------------------------------------------------------- failure detection

    def trigger_recovery(self, reason, cause=None):
        if self.failed or self.suppress_detection:
            return
        trig_eid = None
        tr = self.trace
        if tr is not None:
            trig_eid = tr.emit("recovery", "trigger", node=self.node_id,
                               cause=cause, reason=reason)
        # Side-channel for the manager (the callback signature is part of
        # the public API and stays (node_id, reason)).
        self.last_trigger_cause = trig_eid
        self.hooks.on_recovery_triggered(self.node_id, reason)
        if self.recovery_trigger is not None:
            self.recovery_trigger(self.node_id, reason)

    def firmware_assert(self, condition, message):
        """A MAGIC firmware assertion (§4.2): failure triggers recovery."""
        if condition:
            return True
        self.trigger_recovery("assertion:%s" % message, cause=self._cause)
        return False

    def _fail_pending_access_with(self, error_kind, packet):
        """A truncated data reply poisons the access it was servicing."""
        payload = packet.payload if isinstance(packet.payload, dict) else {}
        line = payload.get("line") if payload else None
        if line is None:
            return
        pending = self._finish_outstanding(line)
        if pending is not None:
            error = BusError(error_kind, line, "packet truncated in flight")
            self.stats.bus_errors += 1
            pending.event.trigger(("error", error))

    # --------------------------------------------------------- recovery services

    def enter_recovery(self):
        """Tear down normal operation at the start of recovery (§4.2):
        NAK pending cacheable requests (they will be reissued), keep pending
        uncached reads in the saved buffer, and stop failure detection."""
        self.in_recovery = True
        self.suppress_detection = True
        self.pi_queue.clear()   # the processor is interrupted; queued ops
                                # will be reissued after recovery
        for pending in self.outstanding.values():
            # Uncached ops keep listening for the reply via the saved
            # buffer; cacheable ops are NAKed and reissued — either way
            # the per-op timeout timer dies here.
            if pending.timer is not None:
                self.sim.cancel(pending.timer)
                pending.timer = None
        self.outstanding.clear()

    def set_drain_mode(self, enabled):
        self.drain_mode = enabled

    def exit_recovery(self):
        self.in_recovery = False
        self.drain_mode = False
        self.suppress_detection = False
        self.recovery_cause = None

    def flush_caches_home(self):
        """Recovery P4: flush the processor cache, sending dirty lines home.

        Returns (lines_flushed, writebacks_sent) for cost accounting.
        """
        dirty = self.cache.flush_all()
        for line_address, value in dirty:
            self.send_put(line_address, value)
        return self.cache.capacity_lines, len(dirty)

    def scan_and_reset_directory(self):
        """Recovery P4: mark lost lines incoherent, reset everything else
        (§4.5).  Returns (scanned, marked) counts.
        """
        marked = 0
        for line_address in self.directory.touched_lines():
            entry = self.directory.peek(line_address)
            if entry.state == DirState.INCOHERENT:
                continue   # already marked in an earlier recovery
            if not entry.memory_valid:
                # Still cached exclusive after the flush: the only valid
                # copy is gone.
                entry.unlock(DirState.INCOHERENT)
                self.hooks.on_line_marked_incoherent(
                    self.node_id, line_address)
                marked += 1
            else:
                entry.unlock(DirState.UNOWNED)
                entry.sharers = set()
                entry.owner = None
        return self.directory.total_lines, marked

    def scan_directory_reliable(self, failed_nodes):
        """Recovery P4 variant for a machine with end-to-end reliable
        coherence transport (paper §6.3, HAL discussion): no cache flush is
        needed, but the directories must still be scanned and updated to
        reflect the loss of lines cached in the failed portion.

        Returns (scanned, marked) like :meth:`scan_and_reset_directory`.
        """
        failed_nodes = set(failed_nodes)
        marked = 0
        for line_address in self.directory.touched_lines():
            entry = self.directory.peek(line_address)
            if entry.state == DirState.INCOHERENT:
                continue
            if entry.state == DirState.EXCLUSIVE:
                if entry.owner in failed_nodes:
                    entry.unlock(DirState.INCOHERENT)
                    self.hooks.on_line_marked_incoherent(
                        self.node_id, line_address)
                    marked += 1
                # surviving owner keeps its (unflushed) dirty copy
            elif entry.state == DirState.SHARED:
                entry.sharers -= failed_nodes
                if not entry.sharers:
                    entry.state = DirState.UNOWNED
            elif entry.state == DirState.LOCKED:
                survivors = entry.sharers - failed_nodes
                if entry.memory_valid:
                    entry.unlock(DirState.SHARED if survivors
                                 else DirState.UNOWNED)
                    entry.sharers = survivors
                    entry.owner = None
                else:
                    entry.unlock(DirState.INCOHERENT)
                    self.hooks.on_line_marked_incoherent(
                        self.node_id, line_address)
                    marked += 1
        return self.directory.total_lines, marked

    def scrub_page(self, page_address):
        """MAGIC service used by the OS to reset incoherent lines of a page
        before reuse (§4.6).  Local: the OS calls it at the page's home
        (Hive's file server homes its pages at its own lead node); it
        returns the number of lines reset."""
        reset = 0
        line_size = self.address_map.line_size
        for offset in range(0, self.address_map.page_size, line_size):
            line_address = page_address + offset
            entry = self.directory.peek(line_address)
            if entry is not None and entry.state == DirState.INCOHERENT:
                entry.unlock(DirState.UNOWNED)
                entry.sharers = set()
                entry.owner = None
                entry.memory_valid = True
                self.memory.write_line(
                    line_address, initial_value(line_address))
                reset += 1
        return reset

    def update_node_map(self, available_nodes):
        self.node_map = set(available_nodes)

    # ------------------------------------------------------------------- faults

    def fail(self):
        """Node failure: controller, memory and caches become unavailable."""
        self.failed = True
        self.ni.fail()
        for pending in self.outstanding.values():
            if pending.timer is not None:
                self.sim.cancel(pending.timer)
                pending.timer = None
        self.outstanding.clear()
        if self.cache is not None:
            self.cache.drop_all()
        if self._proc is not None:
            self._proc.kill()

    def wedge(self):
        """Firmware infinite loop: stop accepting packets (§3.1)."""
        self.wedged = True
        if self._proc is not None:
            self._proc.kill()


#: "no causal context" sentinel unpacked onto outgoing packets
_NO_LINEAGE = (None, None)

_RECOVERY_KINDS = frozenset({
    MessageKind.PING, MessageKind.PING_REPLY, MessageKind.DISSEMINATE,
    MessageKind.BARRIER_UP, MessageKind.BARRIER_DOWN, MessageKind.FLUSH_DONE,
})

_ROUTER_REPLY_KINDS = frozenset({ROUTER_PROBE_REPLY, ROUTER_CTRL_ACK})

_REPLY_KINDS = frozenset({
    MessageKind.DATA_SHARED, MessageKind.DATA_EXCL, MessageKind.NAK,
    MessageKind.BUS_ERROR_REPLY, MessageKind.UC_DATA, MessageKind.UC_ACK,
})
