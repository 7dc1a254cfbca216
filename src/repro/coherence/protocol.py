"""Directory protocol handlers.

The engine runs inside MAGIC's dispatch loop; every handler returns its cost
in nanoseconds.  Home-side handlers implement the line state machine
(UNOWNED / SHARED / EXCLUSIVE / LOCKED / INCOHERENT); remote-side handlers
service forwarded interventions against the local cache.

Fault-containment checks implemented at the home (paper §3.2, §3.3):

* requests for INCOHERENT lines are answered with a bus-error reply;
* exclusive fetches pass the firewall page ACL, with the extra check cost
  charged only on inter-cell writes (the <7% overhead of §6.2);
* writes into the MAGIC-protected region are rejected by the range check;
* uncached I/O from outside the home's failure unit is rejected (§3.3).
"""

from repro.common.types import BusErrorKind, CacheState, DirState, page_of
from repro.coherence.messages import MessageKind


class ProtocolEngine:
    """Home and remote coherence handlers for one node's MAGIC."""

    def __init__(self, magic):
        self.magic = magic
        self.params = magic.params
        #: (directory state name, message kind name) pairs a handler ran
        #: for; filled only on traced runs (the fuzzer's ``dk|`` features)
        self.covered = set()

    # ------------------------------------------------------------------ entry

    def handle(self, packet):
        kind = packet.kind
        handler = _HANDLERS.get(kind)
        if handler is None:
            self._note_stray(packet, "no-handler")
            return self.params.short_handler_time
        if self.magic.trace is not None:
            self._note_cover(packet, kind)
        return handler(self, packet)

    def _note_cover(self, packet, kind):
        """Note the directory-state x message-kind pair in ``covered``.

        Only run with a recorder attached (campaign/fuzz runs — the
        dispatch loop guards the call, so untraced runs pay one attribute
        load and identity check): the fuzzer's coverage map treats each
        (state, kind) pair the dispatch loop exercised as one feature.
        ``peek`` is used so the observation never materializes directory
        entries.
        """
        payload = packet.payload
        line = None
        if isinstance(payload, dict):
            # uncached requests address memory by "address" rather than a
            # coherence line; either names the directory entry whose state
            # the handler will consult
            line = payload.get("line") or payload.get("address")
        directory = self.magic.directory
        if line is None or not directory.owns(line):
            state = "REMOTE"
        else:
            entry = directory.peek(line)
            state = "UNOWNED" if entry is None else entry.state.name
        self.covered.add((state, kind.name))

    def _note_stray(self, packet, reason):
        """Record a message the protocol cannot act on.

        Beyond the MagicStats counter, the stray is made visible in
        timelines (trace event), so an unhandled kind shows up in a Chrome
        trace instead of only in post-run stats — the dynamic mirror of
        the tier-1 dispatch-coverage test.
        """
        magic = self.magic
        magic.stats.stray_messages += 1
        tr = magic.trace
        if tr is not None:
            tr.emit("protocol", "stray", node=magic.node_id,
                    cause=magic._cause, kind=str(packet.kind),
                    src=packet.src, reason=reason)

    # -------------------------------------------------------------- home: GET

    def _home_get(self, packet):
        magic = self.magic
        payload = packet.payload
        line = payload["line"]
        requester = payload["requester"]
        if not magic.firmware_assert(
                magic.directory.owns(line),
                "GET for line not homed here"):
            return self.params.short_handler_time
        entry = magic.directory.entry(line)

        if entry.state == DirState.INCOHERENT:
            self._reply_bus_error(requester, line,
                                  BusErrorKind.INCOHERENT_LINE)
            return self.params.handler_time

        if entry.state == DirState.LOCKED:
            self._reply_nak(requester, line)
            return self.params.short_handler_time

        if entry.state == DirState.UNOWNED:
            entry.state = DirState.SHARED
            entry.sharers = {requester}
            self._reply_data(requester, line,
                             magic.memory.read_line(line), exclusive=False)
            return self.params.handler_time

        if entry.state == DirState.SHARED:
            entry.sharers.add(requester)
            self._reply_data(requester, line,
                             magic.memory.read_line(line), exclusive=False)
            return self.params.handler_time

        # EXCLUSIVE: the dirty copy is in a remote cache.
        if entry.owner == requester:
            # The owner's writeback is racing with this new request: wait
            # for the PUT, then satisfy the request from memory.
            entry.lock(MessageKind.GET, requester)
            entry.awaiting_put = True
            return self.params.handler_time
        owner = entry.owner
        entry.lock(MessageKind.GET, requester)
        magic.send_message(owner, MessageKind.FWD_GET,
                           {"line": line, "requester": requester,
                            "home": magic.node_id})
        return self.params.handler_time

    # -------------------------------------------------------------- home: GETX

    def _home_getx(self, packet):
        magic = self.magic
        payload = packet.payload
        line = payload["line"]
        requester = payload["requester"]
        if not magic.firmware_assert(
                magic.directory.owns(line),
                "GETX for line not homed here"):
            return self.params.short_handler_time

        cost = self.params.handler_time
        reply_delay = 0.0
        # Firewall: only charged when the check actually runs, i.e. for
        # writers outside the home's failure unit, and the check runs
        # before the reply leaves, so the requester sees it (§6.2).
        if (magic.firewall_enabled
                and requester not in magic.failure_unit):
            reply_delay = self.params.firewall_check_time
            cost += reply_delay
            page = page_of(line, magic.address_map.page_size)
            if not magic.firewall_allows(page, requester):
                magic.stats.firewall_rejections += 1
                self._reply_bus_error(requester, line,
                                      BusErrorKind.FIREWALL)
                return cost

        if (magic.address_map.is_magic_region(line)
                and requester != magic.node_id):
            # Range check: nobody writes the node controller's state (§3.3).
            self._reply_bus_error(requester, line, BusErrorKind.RANGE_CHECK)
            return cost

        entry = magic.directory.entry(line)

        if entry.state == DirState.INCOHERENT:
            self._reply_bus_error(requester, line,
                                  BusErrorKind.INCOHERENT_LINE)
            return cost

        if entry.state == DirState.LOCKED:
            self._reply_nak(requester, line)
            return self.params.short_handler_time

        if entry.state == DirState.UNOWNED:
            self._grant_exclusive(entry, line, requester,
                                  magic.memory.read_line(line),
                                  reply_delay=reply_delay)
            return cost

        if entry.state == DirState.SHARED:
            others = entry.sharers - {requester}
            if not others:
                self._grant_exclusive(entry, line, requester,
                                      magic.memory.read_line(line),
                                      reply_delay=reply_delay)
                return cost
            entry.lock(MessageKind.GETX, requester)
            entry.awaiting_acks = len(others)
            for sharer in sorted(others):
                magic.send_message(sharer, MessageKind.INVAL,
                                   {"line": line, "home": magic.node_id})
            return self.params.long_handler_time

        # EXCLUSIVE
        if entry.owner == requester:
            entry.lock(MessageKind.GETX, requester)
            entry.awaiting_put = True
            return cost
        owner = entry.owner
        entry.lock(MessageKind.GETX, requester)
        magic.send_message(owner, MessageKind.FWD_GETX,
                           {"line": line, "requester": requester,
                            "home": magic.node_id})
        return cost

    def _grant_exclusive(self, entry, line, requester, value,
                         reply_delay=0.0):
        entry.unlock(DirState.EXCLUSIVE)
        entry.sharers = set()
        entry.owner = requester
        entry.memory_valid = False
        self._reply_data(requester, line, value, exclusive=True,
                         reply_delay=reply_delay)

    # --------------------------------------------------------------- home: PUT

    def _home_put(self, packet):
        magic = self.magic
        payload = packet.payload
        line = payload["line"]
        value = payload["value"]
        writer = packet.src
        if not magic.firmware_assert(
                magic.directory.owns(line), "PUT for line not homed here"):
            return self.params.short_handler_time
        entry = magic.directory.entry(line)

        if entry.state == DirState.EXCLUSIVE and entry.owner == writer:
            magic.memory.write_line(line, value)
            entry.memory_valid = True
            entry.owner = None
            entry.unlock(DirState.UNOWNED)
            magic.hooks.on_put_absorbed(magic.node_id, line)
            return self.params.handler_time

        if entry.state == DirState.LOCKED:
            # Writeback raced with a forwarded request: absorb the data
            # but keep the lock.  Completing from memory now would
            # re-grant the line while the stale forward could later hit
            # a re-acquired copy and transfer ownership behind the
            # directory's back.  The forward provably drains as a
            # FWD_MISS (completed then from this parked copy) or an
            # OWNERSHIP_XFER from whoever serviced it.
            magic.memory.write_line(line, value)
            entry.memory_valid = True
            magic.hooks.on_put_absorbed(magic.node_id, line)
            return self.params.handler_time

        if entry.state == DirState.INCOHERENT:
            # A writeback for a line already declared lost: the data is
            # stale by definition (the mark happened during recovery after
            # the flush); ignore it.
            self._note_stray(packet, "put-to-incoherent-line")
            return self.params.short_handler_time

        self._note_stray(packet, "put-without-ownership")
        return self.params.short_handler_time

    def _complete_pending_from_memory(self, entry, line):
        magic = self.magic
        requester = entry.pending_requester
        kind = entry.pending_kind
        value = magic.memory.read_line(line)
        if kind == MessageKind.GET:
            entry.unlock(DirState.SHARED)
            entry.sharers = {requester}
            entry.owner = None
            self._reply_data(requester, line, value, exclusive=False)
        else:
            self._grant_exclusive(entry, line, requester, value)

    # ------------------------------------------------------ home: ack collection

    def _home_inval_ack(self, packet):
        magic = self.magic
        line = packet.payload["line"]
        entry = magic.directory.peek(line)
        if (entry is None or entry.state != DirState.LOCKED
                or entry.pending_kind != MessageKind.GETX):
            self._note_stray(packet, "ack-without-pending-getx")
            return self.params.short_handler_time
        entry.awaiting_acks -= 1
        if entry.awaiting_acks > 0:
            return self.params.short_handler_time
        self._grant_exclusive(entry, line, entry.pending_requester,
                              magic.memory.read_line(line))
        return self.params.handler_time

    def _home_sharing_wb(self, packet):
        magic = self.magic
        payload = packet.payload
        line = payload["line"]
        entry = magic.directory.peek(line)
        if (entry is None or entry.state != DirState.LOCKED
                or entry.pending_kind != MessageKind.GET):
            self._note_stray(packet, "writeback-without-pending-get")
            return self.params.short_handler_time
        old_owner = entry.owner
        magic.memory.write_line(line, payload["value"])
        entry.memory_valid = True
        requester = entry.pending_requester
        entry.unlock(DirState.SHARED)
        entry.sharers = {old_owner, requester}
        entry.owner = None
        return self.params.handler_time

    def _home_ownership_xfer(self, packet):
        magic = self.magic
        line = packet.payload["line"]
        entry = magic.directory.peek(line)
        if (entry is None or entry.state != DirState.LOCKED
                or entry.pending_kind != MessageKind.GETX):
            self._note_stray(packet, "ownership-xfer-without-pending-getx")
            return self.params.short_handler_time
        if entry.memory_valid:
            # A writeback landed while the transfer was in flight.  The
            # forward can only have hit the old owner before any eviction
            # of its copy, so the writeback must be from the transfer's
            # recipient: the new owner already gave the line back.
            entry.unlock(DirState.UNOWNED)
            entry.sharers = set()
            entry.owner = None
            return self.params.short_handler_time
        requester = entry.pending_requester
        entry.unlock(DirState.EXCLUSIVE)
        entry.sharers = set()
        entry.owner = requester
        entry.memory_valid = False
        return self.params.short_handler_time

    def _home_fwd_miss(self, packet):
        magic = self.magic
        line = packet.payload["line"]
        entry = magic.directory.peek(line)
        if entry is None or entry.state != DirState.LOCKED:
            self._note_stray(packet, "fwd-miss-without-lock")
            return self.params.short_handler_time
        if entry.memory_valid:
            # An eviction's PUT travels the same owner-to-home lane as
            # the FWD_MISS it causes, so the writeback always lands
            # first: memory is current and the forward has provably
            # drained -- complete the pending request from memory.
            self._complete_pending_from_memory(entry, line)
            return self.params.handler_time
        # Memory is stale, so no writeback is coming: the target missed
        # because its own exclusive grant is still in flight.  NAK the
        # pending requester (it will retry) and release the lock; the
        # directory's owner field is already correct.
        requester = entry.pending_requester
        entry.unlock(DirState.EXCLUSIVE)
        self._reply_nak(requester, line)
        return self.params.short_handler_time

    # ------------------------------------------------------ remote: interventions

    def _remote_fwd_get(self, packet):
        magic = self.magic
        payload = packet.payload
        line = payload["line"]
        requester = payload["requester"]
        home = payload["home"]
        value = magic.cache.downgrade(line) if magic.cache else None
        if value is None:
            # We no longer hold the line: our writeback is in flight.
            magic.send_message(home, MessageKind.FWD_MISS, {"line": line})
            return self.params.short_handler_time
        magic.send_message(requester, MessageKind.DATA_SHARED,
                           {"line": line, "value": value})
        magic.send_message(home, MessageKind.SHARING_WB,
                           {"line": line, "value": value})
        return self.params.long_handler_time

    def _remote_fwd_getx(self, packet):
        magic = self.magic
        payload = packet.payload
        line = payload["line"]
        requester = payload["requester"]
        home = payload["home"]
        value = magic.cache.invalidate(line) if magic.cache else None
        if value is None:
            magic.send_message(home, MessageKind.FWD_MISS, {"line": line})
            return self.params.short_handler_time
        magic.send_message(requester, MessageKind.DATA_EXCL,
                           {"line": line, "value": value})
        magic.send_message(home, MessageKind.OWNERSHIP_XFER, {"line": line})
        return self.params.long_handler_time

    def _remote_inval(self, packet):
        magic = self.magic
        payload = packet.payload
        line = payload["line"]
        home = payload["home"]
        if magic.cache is not None:
            state = magic.cache.state_of(line)
            magic.firmware_assert(
                state != CacheState.EXCLUSIVE,
                "INVAL hit a dirty line")
            magic.cache.invalidate(line)
        magic.send_message(home, MessageKind.INVAL_ACK, {"line": line})
        return self.params.short_handler_time

    # ------------------------------------------------------------ home: uncached

    def _home_uc_read(self, packet):
        return self._home_uncached(packet, is_read=True)

    def _home_uc_write(self, packet):
        return self._home_uncached(packet, is_read=False)

    def _home_uncached(self, packet, is_read):
        magic = self.magic
        payload = packet.payload
        address = payload["address"]
        requester = payload["requester"]
        reply_kind = MessageKind.UC_DATA if is_read else MessageKind.UC_ACK
        if (magic.address_map.is_io_region(address)
                and requester not in magic.failure_unit):
            # Nonidempotent I/O never crosses failure-unit boundaries
            # directly; it must go through the OS RPC path (§3.3).  The
            # error rides the uncached-reply kind so the requester's
            # outstanding-table lookup finds it by uc_key.
            magic.send_message(requester, reply_kind,
                               {"uc_key": payload["uc_key"],
                                "address": address,
                                "error_kind":
                                    BusErrorKind.REMOTE_UNCACHED_IO,
                                "detail": "uncached I/O across failure unit"})
            return self.params.handler_time
        if magic.address_map.is_io_region(address):
            register = (address
                        - magic.address_map.io_region_start(magic.node_id))
            if is_read:
                value = magic.io_device.read(register)
            else:
                magic.io_device.write(register, payload.get("value"))
                value = None
        else:
            line = magic.address_map.line_address(address)
            if is_read:
                value = magic.memory.read_line(line)
            else:
                magic.memory.write_line(line, payload.get("value"))
                value = None
        magic.send_message(requester, reply_kind,
                           {"uc_key": payload["uc_key"], "value": value,
                            "address": address, "error_kind": None})
        return self.params.handler_time

    # ----------------------------------------------------------------- replies

    def _reply_data(self, requester, line, value, exclusive,
                    reply_delay=0.0):
        kind = (MessageKind.DATA_EXCL if exclusive
                else MessageKind.DATA_SHARED)
        self.magic.send_message(requester, kind,
                                {"line": line, "value": value},
                                delay=reply_delay)

    def _reply_nak(self, requester, line):
        self.magic.stats.naks_sent += 1
        self.magic.send_message(requester, MessageKind.NAK, {"line": line})

    def _reply_bus_error(self, requester, line, error_kind, detail=""):
        self.magic.send_message(
            requester, MessageKind.BUS_ERROR_REPLY,
            {"line": line, "error_kind": error_kind,
             "address": line, "detail": detail})


_HANDLERS = {
    MessageKind.GET: ProtocolEngine._home_get,
    MessageKind.GETX: ProtocolEngine._home_getx,
    MessageKind.PUT: ProtocolEngine._home_put,
    MessageKind.INVAL_ACK: ProtocolEngine._home_inval_ack,
    MessageKind.SHARING_WB: ProtocolEngine._home_sharing_wb,
    MessageKind.OWNERSHIP_XFER: ProtocolEngine._home_ownership_xfer,
    MessageKind.FWD_MISS: ProtocolEngine._home_fwd_miss,
    MessageKind.FWD_GET: ProtocolEngine._remote_fwd_get,
    MessageKind.FWD_GETX: ProtocolEngine._remote_fwd_getx,
    MessageKind.INVAL: ProtocolEngine._remote_inval,
    MessageKind.UC_READ: ProtocolEngine._home_uc_read,
    MessageKind.UC_WRITE: ProtocolEngine._home_uc_write,
}
