"""Exactly-once inter-cell RPC (paper §3.3).

The transport is the OS message (mailbox + interrupt analog), which rides
the normal request lane and is therefore *lossy across faults*.  The RPC
layer provides exactly-once semantics end to end: requests carry sequence
numbers, the callee deduplicates and caches replies, and the caller
retransmits until it sees the reply or concludes the callee is dead.

Handlers run at most once per (caller, sequence) pair even under arbitrary
retransmission — the property the nonidempotent remote I/O path needs.
"""

import itertools

from repro.coherence.messages import MessageKind
from repro.common.errors import ReproError
from repro.sim import Event
from repro.sim.process import poke


class RpcError(ReproError):
    """Base class for RPC failures."""


class CellDownError(RpcError):
    """The callee cell is dead (or became dead before replying)."""

    def __init__(self, cell_id):
        super().__init__("cell %d is down" % cell_id)
        self.cell_id = cell_id


class RpcEndpoint:
    """Per-cell RPC endpoint running on the cell's lead node."""

    def __init__(self, sim, params, cell_id, magic):
        self.sim = sim
        self.params = params
        self.cell_id = cell_id
        self.magic = magic
        self.handlers = {}          # service name -> fn(caller_cell, payload)
        self.peers = {}             # cell_id -> lead node id
        self.dead_cells = set()
        self._seq = itertools.count(1)
        self._waiting = {}          # (dst_cell, seq) -> Event
        self._executed = {}         # (src_cell, seq) -> cached reply
        self._proc = None
        self.stats_duplicates_dropped = 0
        self.stopped = False

    def register(self, service, handler):
        """Install ``handler(caller_cell, payload) -> reply`` for a service."""
        self.handlers[service] = handler

    def start(self):
        self._proc = self.sim.spawn(
            self._serve(), name="rpc.cell%d" % self.cell_id)

    def stop(self):
        self.stopped = True
        if self._proc is not None:
            self._proc.kill()
        for event in self._waiting.values():
            if not event.triggered:
                event.trigger(("dead", None))
        self._waiting.clear()

    def mark_cell_dead(self, cell_id):
        """OS recovery: abort calls pending toward a dead cell (§4.6)."""
        self.dead_cells.add(cell_id)
        for (dst, _seq), event in list(self._waiting.items()):
            if dst == cell_id and not event.triggered:
                event.trigger(("dead", None))

    # ------------------------------------------------------------------- call

    def call(self, dst_cell, service, payload):
        """Generator: perform an exactly-once RPC; returns the reply.

        Raises :class:`CellDownError` when the destination is known dead or
        never answers within the RPC timeout.
        """
        if dst_cell in self.dead_cells:
            raise CellDownError(dst_cell)
        seq = next(self._seq)
        key = (dst_cell, seq)
        give_up_at = self.sim.now + self.params.rpc_timeout
        body = {"rpc": "req", "service": service, "payload": payload,
                "seq": seq, "caller": self.cell_id}
        while True:
            # The kernel cannot run while the processor executes recovery
            # code: hold off (and stop retransmitting into the drain).
            while self.magic.in_recovery and not self.stopped:
                yield self.params.rpc_retry_interval
                give_up_at = self.sim.now + self.params.rpc_timeout
            if dst_cell in self.dead_cells:
                raise CellDownError(dst_cell)
            if self.sim.now >= give_up_at:
                self.dead_cells.add(dst_cell)
                raise CellDownError(dst_cell)
            event = Event(self.sim)
            self._waiting[key] = event
            self._send(dst_cell, dict(body))
            timer = self.sim.schedule(self.params.rpc_retry_interval,
                                      poke, event, ("retry", None))
            status, value = yield event
            self.sim.cancel(timer)
            self._waiting.pop(key, None)
            if status == "reply":
                return value
            if status == "dead":
                raise CellDownError(dst_cell)
            # status == "retry": the retransmit timer fired; loop around.

    def _send(self, dst_cell, body):
        dst_node = self.peers.get(dst_cell)
        if dst_node is None:
            raise RpcError("unknown cell %d" % dst_cell)
        if self.magic.in_recovery:
            return   # suppressed during recovery; retransmission covers it
        self.magic.send_message(dst_node, MessageKind.OS_MSG, body)

    # ------------------------------------------------------------------ server

    def _serve(self):
        inbox = self.magic.os_inbox
        while True:
            packet = yield inbox.get()
            body = packet.payload or {}
            tag = body.get("rpc")
            if tag == "req":
                self._handle_request(body)
            elif tag == "rep":
                self._handle_reply(body)

    def _handle_request(self, body):
        caller = body["caller"]
        seq = body["seq"]
        key = (caller, seq)
        if key in self._executed:
            # Duplicate request: resend the cached reply; the handler does
            # NOT run again (exactly-once execution).
            self.stats_duplicates_dropped += 1
            reply = self._executed[key]
        else:
            handler = self.handlers.get(body["service"])
            if handler is None:
                reply = {"error": "no such service %r" % body["service"]}
            else:
                reply = handler(caller, body["payload"])
            self._executed[key] = reply
        self._send(caller, {"rpc": "rep", "seq": seq,
                            "caller": self.cell_id, "reply": reply})

    def _handle_reply(self, body):
        key = (body["caller"], body["seq"])
        event = self._waiting.pop(key, None)
        if event is not None and not event.triggered:
            event.trigger(("reply", body["reply"]))
