"""Per-node recovery agent: the four phases of the recovery algorithm.

One agent runs on every functioning node's processor, in uncached mode (all
work is charged at the 390 ns/instruction recovery-execution rate, §4.1).
The agent communicates over the dedicated recovery lanes via
:class:`~repro.recovery.comm.RecoveryComm`; deterministic graph computations
(BFT heights, routing tables, barrier trees) are delegated to the manager,
which memoizes them — every node computes the same function of the same
stabilized view, exactly as the paper requires.

Any communication failure (:class:`RecoveryCommError`) is interpreted as a
new hardware fault and escalates to a machine-wide restart of the recovery
algorithm (§4.1).
"""

from collections import deque

from repro.coherence.messages import MessageKind
from repro.interconnect.packet import ROUTER_SET_DISCARD, ROUTER_SET_TABLE
from repro.interconnect.router import LOCAL_PORT
from repro.recovery.comm import RecoveryComm, RecoveryCommError
from repro.recovery.view import LinkStatus, NodeStatus, SystemView


class RecoveryAgent:
    """The recovery code executing on one node."""

    def __init__(self, manager, node, epoch,
                 speculative_pings=True, bft_hints=True):
        self.manager = manager
        self.node = node
        self.magic = node.magic
        self.sim = manager.sim
        self.params = manager.params
        self.topology = manager.topology
        self.node_id = node.node_id
        self.epoch = epoch
        self.speculative_pings = speculative_pings
        self.bft_hints = bft_hints

        self.comm = RecoveryComm(self.sim, self.params, self.magic, epoch)
        self.view = SystemView()
        self.cwn_routes = {}     # alive neighbor -> source route (from P1)
        self.wb_mark = None      # (start, end) of P4's flush (Figure 5.6)
        self.marked_incoherent = 0
        self.shutdown = False
        self.finished = False
        self.rounds_executed = 0
        self.used_hint = False
        self.proc = None

    def start(self):
        self.proc = self.sim.spawn(
            self._run(), name="recovery%d.e%d" % (self.node_id, self.epoch))
        return self.proc

    # -------------------------------------------------------------- utilities

    def _work(self, instructions):
        """Charge recovery-mode execution time (uncached, ~2.5 MIPS)."""
        return self.params.recovery_work(instructions)

    def _begin_phase(self, phase):
        self.manager.note_phase_entry(phase, self.node_id)

    def _end_phase(self, phase):
        self.manager.note_phase_exit(phase, self.node_id, self.epoch)

    # ------------------------------------------------------------------- main

    def _run(self):
        # Answer pings whenever they arrive, at any point in recovery: a
        # reply is the proof of life the pinger's cwn exploration needs.
        self.comm.auto_handlers[MessageKind.PING] = self.comm.answer_ping
        try:
            yield from self._phase1_initiation()
            yield from self._phase2_dissemination()
            if self._should_shutdown():
                self._do_shutdown("split-brain heuristic")
                return
            yield from self._phase3_interconnect()
            yield from self._phase4_coherence()
            self._complete()
        except RecoveryCommError as error:
            self.manager.request_restart(self.node_id, str(error))

    # ------------------------------------------------------ P1: initiation

    def _phase1_initiation(self):
        self._begin_phase("P1")
        # Vectoring through the forced cache error, starting the recovery
        # code from uncached space, and local diagnostics (§4.2).
        yield self._work(self.params.instr_enter_recovery)
        self.view.observe_node(self.node_id, NodeStatus.ALIVE)

        neighbors = sorted(self.topology.neighbors(self.node_id).items())

        if self.speculative_pings:
            # Optimization (§4.2): ping immediate neighbors before the cwn
            # exploration — a ~5x speedup of recovery triggering.
            for port, (neighbor, _) in neighbors:
                self.comm.send_ping_oneway(neighbor, [port])
                yield self._work(self.params.instr_ping_handle)

        # Iterative closest-working-neighbor exploration (§4.2): probe
        # farther and farther until every path ends at a failed link or a
        # functioning node.
        visited = {self.node_id}
        frontier = deque([(self.node_id, [])])
        while frontier:
            router, route = frontier.popleft()
            for port, (neighbor, _) in sorted(
                    self.topology.neighbors(router).items()):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                probe_route = route + [port]
                yield self._work(self.params.instr_probe_setup)
                router_id = yield from self.comm.probe_router(probe_route)
                if router_id is None:
                    # No probe reply: link (or the router behind it) failed.
                    self.view.observe_link(router, neighbor, LinkStatus.DOWN)
                    continue
                self.view.observe_link(router, neighbor, LinkStatus.UP)
                alive = yield from self.comm.ping_node(neighbor, probe_route)
                if alive:
                    self.view.observe_node(neighbor, NodeStatus.ALIVE)
                    self.cwn_routes[neighbor] = probe_route
                    # Do not explore beyond a functioning node: by
                    # definition it is a closest working neighbor.
                else:
                    # Router answers but the node controller does not: the
                    # node failed; keep exploring through its router.
                    self.view.observe_node(neighbor, NodeStatus.DEAD)
                    frontier.append((neighbor, probe_route))
        self._end_phase("P1")

    # -------------------------------------------------- P2: dissemination

    def _phase2_dissemination(self):
        self._begin_phase("P2")
        rounds_target = None
        hint = None
        round_no = 0
        partners = sorted(self.cwn_routes)
        safety_limit = 4 * self.topology.num_nodes + 8

        while partners:
            round_no += 1
            if round_no > safety_limit:
                raise RecoveryCommError(
                    "dissemination did not converge on node %d"
                    % self.node_id)
            entries = self.view.entry_count()
            wire = self.view.encode()
            for partner in partners:
                yield self._work(self.params.instr_send_per_entry * entries)
                self.comm.send(
                    MessageKind.DISSEMINATE,
                    {"round": round_no, "view": wire, "hint": hint,
                     "entry_count": entries},
                    self.cwn_routes[partner])

            changed = False
            deadline = self.sim.now + self.params.dissemination_timeout
            for partner in partners:
                def match(packet, partner=partner):
                    return (packet.kind == MessageKind.DISSEMINATE
                            and packet.payload.get("sender") == partner
                            and packet.payload.get("round") == round_no)

                packet = yield from self.comm.receive(match, deadline)
                if packet is None:
                    raise RecoveryCommError(
                        "dissemination round %d: no message from %d at %d"
                        % (round_no, partner, self.node_id))
                their_view = packet.payload["view"]   # a ViewSnapshot
                yield self._work(
                    self.params.instr_merge_per_entry
                    * their_view.entry_count())
                if self.view.merge(their_view):
                    changed = True
                their_hint = packet.payload.get("hint")
                if their_hint is not None and hint is None:
                    hint = their_hint
                    self.used_hint = True

            tr = self.manager.trace
            if tr is not None:
                tr.emit("round", "done", node=self.node_id,
                        cause=self.manager.episode_cause, round=round_no,
                        epoch=self.epoch, changed=changed,
                        entries=self.view.entry_count())
            if not changed and rounds_target is None:
                # View stabilized: it is now the final global view (§4.3).
                if hint is not None and self.bft_hints:
                    # Deferred-BFT optimization: adopt the hint now; our own
                    # (identical) BFT computation is deferred to the end of
                    # the phase, where all deferred computations overlap.
                    rounds_target = hint
                else:
                    yield self._work(
                        self.params.instr_bft_per_node
                        * max(1, self.view.node_count()))
                    rounds_target = self._compute_rounds_target()
                    hint = rounds_target
            if rounds_target is not None and round_no >= rounds_target:
                break

        self.rounds_executed = round_no
        if self.used_hint and self.bft_hints:
            # The deferred BFT computations all run here, in parallel across
            # nodes (§4.3).
            yield self._work(
                self.params.instr_bft_per_node
                * max(1, self.view.node_count()))
        # From here on, any straggler's round messages are answered from the
        # final (converged) view by the comm layer's responder, so nodes
        # whose round counts end slightly apart never deadlock each other.
        self.comm.auto_handlers[MessageKind.DISSEMINATE] = self._echo_round
        for packet in self.comm.drain_pending(
                lambda p: p.kind == MessageKind.DISSEMINATE):
            self._echo_round(packet)
        self._end_phase("P2")

    def _compute_rounds_target(self):
        """2h termination bound (§4.3): h = height of the BFT rooted at a
        deterministically chosen functioning node."""
        height = self.manager.bft_height_for_view(self.view)
        return max(1, 2 * height)

    def _echo_round(self, packet):
        sender = packet.payload.get("sender")
        route = self.cwn_routes.get(sender)
        if route is None:
            return
        entries = self.view.entry_count()
        self.comm.send(
            MessageKind.DISSEMINATE,
            {"round": packet.payload.get("round"),
             "view": self.view.encode(),   # the converged view's one snapshot
             "hint": self.rounds_executed, "entry_count": entries},
            route)

    # --------------------------------------------------- split-brain check

    def _should_shutdown(self):
        """Shut down when most of the machine is unreachable (§4.2)."""
        alive = len(self.view.alive_nodes())
        return alive < self.params.shutdown_fraction * self.topology.num_nodes

    def _do_shutdown(self, why):
        self.shutdown = True
        self.finished = True
        self.manager.agent_shutdown(self, why)

    # ------------------------------------------- P3: interconnect recovery

    def _phase3_interconnect(self):
        self._begin_phase("P3")
        tree, routes = self.manager.barrier_tree_for_view(
            self.view, self.node_id)
        self._barrier_tree = tree
        self._barrier_routes = routes

        # Step 1: isolate the failed regions (§4.4).  Each node reprograms
        # its own router; the designated node also reprograms the routers of
        # failed/wedged nodes so their local ports discard backed-up traffic.
        yield self._work(self.params.instr_isolate_router)
        discard_ports = self._own_discard_ports()
        self.magic.router.set_discard_ports(discard_ports)
        if self.node_id == self._designated_node():
            yield from self._reprogram_orphan_routers(step="discard")

        # Step 2: drain.  Two-phase tau-quiet agreement over the barrier
        # tree (§4.4).
        agreement_round = 0
        while True:
            agreement_round += 1
            if agreement_round > 64:
                raise RecoveryCommError(
                    "drain agreement livelocked on node %d" % self.node_id)
            while True:
                quiet_for = self.sim.now - self.magic.last_normal_delivery
                if quiet_for >= self.params.drain_quiet_time:
                    break
                yield self.params.drain_quiet_time - quiet_for
            vote_time = self.sim.now
            yield self._work(self.params.instr_barrier_step)
            yield from self.comm.barrier(
                "drain.%d.a" % agreement_round, tree, routes)
            dirty = self.magic.last_normal_delivery > vote_time
            yield self._work(self.params.instr_barrier_step)
            any_dirty = yield from self.comm.barrier(
                "drain.%d.b" % agreement_round, tree, routes, value=dirty)
            if not any_dirty:
                break

        # Step 3: recompute and program deadlock-free routing tables (§4.4).
        yield self._work(
            self.params.instr_route_per_node
            * max(1, self.view.node_count()))
        tables = self.manager.routing_tables_for_view(self.view)
        own_table = tables.get(self.node_id, {})
        self.magic.router.program_table(own_table)
        if self.node_id == self._designated_node():
            yield from self._reprogram_orphan_routers(step="table",
                                                      tables=tables)

        yield self._work(self.params.instr_barrier_step)
        yield from self.comm.barrier("routes", tree, routes)
        self._end_phase("P3")

    def _own_discard_ports(self):
        ports = set()
        for port, (neighbor, _) in self.topology.neighbors(
                self.node_id).items():
            if self.view.link_is_down(self.node_id, neighbor):
                ports.add(port)
        return ports

    def _designated_node(self):
        """The node that reprograms routers of dead-controller nodes."""
        alive = self.view.alive_nodes()
        return min(alive) if alive else self.node_id

    def _reprogram_orphan_routers(self, step, tables=None):
        """Program the routers whose node controllers died but whose
        hardware still forwards (wedged/failed nodes, §4.4)."""
        component = self.manager.component_for_view(self.view)
        for dead in sorted(self.view.dead_nodes()):
            if dead not in component:
                continue   # unreachable: isolated by its neighbors already
            route = self.manager.source_route_for_view(
                self.view, self.node_id, dead)
            if route is None:
                continue
            yield self._work(self.params.instr_isolate_router)
            if step == "discard":
                # Discard traffic bound for the dead controller so backed-up
                # buffers drain (§3.1, §4.4).
                yield from self.comm.control_router(
                    ROUTER_SET_DISCARD, {"ports": [LOCAL_PORT]}, route)
            else:
                yield from self.comm.control_router(
                    ROUTER_SET_TABLE,
                    {"table": tables.get(dead, {})}, route)

    # ------------------------------------------- P4: coherence recovery

    def _phase4_coherence(self):
        self._begin_phase("P4")
        self.manager.notify_phase4_entry()
        tree = self._barrier_tree
        routes = self._barrier_routes
        alive = sorted(self.view.alive_nodes())

        # The interconnect is clean again: node controllers may generate
        # traffic (writebacks) on the normal lanes.
        self.magic.set_drain_mode(False)
        self.magic.update_node_map(alive)

        if self.manager.p4_skip_flush:
            # Reliable-interconnect variant (§6.3): no coherence message
            # can have been lost, so the flush is unnecessary — only the
            # directories are scanned and updated for the lines cached in
            # the failed portion of the machine.
            self.wb_mark = (self.sim.now, self.sim.now)
            scanned, marked = self.magic.scan_directory_reliable(
                self.view.dead_nodes())
            yield scanned * self.params.dir_scan_line_time
            self.marked_incoherent = marked
        else:
            # Step 1: flush the processor cache; dirty lines travel home
            # (§4.5).
            flush_start = self.sim.now
            capacity, writebacks = self.magic.flush_caches_home()
            yield capacity * self.params.flush_line_time
            self.wb_mark = (flush_start, self.sim.now)

            # Step 2: all-to-all barrier riding behind the writebacks on
            # the normal request lane (§4.5).
            for other in alive:
                if other != self.node_id:
                    self.magic.send_message(
                        other, MessageKind.FLUSH_DONE,
                        {"sender": self.node_id, "epoch": self.epoch})
            missing = {n for n in alive if n != self.node_id}
            deadline = self.sim.now + self.params.barrier_timeout
            while missing:
                def match(packet):
                    return (packet.kind == MessageKind.FLUSH_DONE
                            and packet.payload.get("sender") in missing)

                packet = yield from self.comm.receive(match, deadline)
                if packet is None:
                    raise RecoveryCommError(
                        "flush barrier: missing %s at node %d"
                        % (sorted(missing), self.node_id))
                missing.discard(packet.payload.get("sender"))

            # Step 3: scan the directory; lines still exclusive lost their
            # only valid copy and are marked incoherent; all else resets
            # (§4.5).
            scanned, marked = self.magic.scan_and_reset_directory()
            yield scanned * self.params.dir_scan_line_time
            self.marked_incoherent = marked

        # Step 4: final barrier; afterwards normal operation resumes (§4.5).
        yield self._work(self.params.instr_barrier_step)
        yield from self.comm.barrier("dirscan", tree, routes)

        # Apply the failure-unit rule (§3.3): if anything inside our unit
        # failed, this node stops too (clean cell shutdown).
        available = self.manager.available_nodes_for_view(self.view)
        if self.node_id not in available:
            self._end_phase("P4")
            self._do_shutdown("failure unit lost a component")
            return
        self.magic.update_node_map(available)
        self._end_phase("P4")

    def _complete(self):
        self.finished = True
        self.magic.exit_recovery()
        self.manager.agent_complete(self)
