"""Machine-level recovery orchestration.

The manager plays three roles:

1. **Detector fan-in** — every MAGIC's ``trigger_recovery`` lands here; the
   first trigger of an episode starts an agent on that node, and the ping
   wave started by that agent drops the other nodes in (each ping arrival
   triggers this manager again for its node).
2. **Deterministic computation service** — BFT heights, barrier trees,
   routing tables, cwn graphs and source routes are pure functions of the
   stabilized view.  Every node computes them independently in the real
   system; here they are memoized per view signature so the simulation does
   the Python work once while still charging each node its simulated
   instruction cost.
3. **Restart rule** (§4.1) — when any agent hits a communication failure
   (a new fault during recovery), all agents are killed and recovery starts
   over with a higher epoch.

The manager also computes the post-recovery *available* set by applying the
failure-unit rule (§3.3): a unit with any failed component loses all of its
nodes.
"""

import dataclasses

from repro.interconnect.routing import (
    bfs_tree,
    bft_height,
    compute_source_route,
    compute_up_down_tables,
    connected_component,
)
from repro.recovery.view import surviving_adjacency_from_view
from repro.sim import Event


RECOVERY_PHASES = ("P1", "P2", "P3", "P4")


@dataclasses.dataclass
class PhaseSpan:
    """One node's execution of one recovery phase, in one epoch."""

    node: int
    phase: str
    epoch: int
    start: float
    end: float = None         # None: cut short by a restart
    enter_eid: int = None     # the trace's phase.enter event, if traced

    @property
    def duration(self):
        return None if self.end is None else self.end - self.start


class RecoveryReport:
    """What one recovery episode did, for experiments and figures.

    ``spans`` holds every node's phase spans in every epoch; the per-phase
    aggregates and the critical path are those of the final epoch, the
    pass that completed.
    """

    def __init__(self, trigger_time, trigger_node, trigger_reason):
        self.trigger_time = trigger_time
        self.trigger_node = trigger_node
        self.trigger_reason = trigger_reason
        self.complete_time = None
        #: one ``(time, node, reason)`` per §4.1 restart, in order
        self.restart_log = []
        self.spans = []               # PhaseSpans, every epoch, in order
        self.final_epoch = None
        self.phase_ends = {}          # "P1".."P4", "WB" -> absolute time
        self.phase_durations = {}     # per-phase max duration across nodes
        self.wb_duration = 0.0        # cache-flush part of P4 (Figure 5.6)
        self.shutdown_nodes = set()
        self.available_nodes = set()
        self.marked_incoherent = 0
        self.agent_rounds = {}        # node -> dissemination rounds executed

    @property
    def restarts(self):
        return len(self.restart_log)

    @property
    def total_duration(self):
        if self.complete_time is None:
            return None
        return self.complete_time - self.trigger_time

    def phase_duration_from_trigger(self, phase):
        """Time from trigger until the last node finished ``phase``."""
        end = self.phase_ends.get(phase)
        return None if end is None else end - self.trigger_time

    def final_spans(self, phase):
        """The closed spans of ``phase`` in the final epoch."""
        return [span for span in self.spans
                if span.epoch == self.final_epoch and span.phase == phase
                and span.end is not None]

    def critical_node(self, phase):
        """The node whose completion gated ``phase`` machine-wide."""
        spans = self.final_spans(phase)
        if not spans:
            return None
        return max(spans, key=lambda span: (span.end, span.node)).node

    def critical_path(self):
        """phase -> (gating node, latency from trigger) for P1..P4."""
        return {phase: (self.critical_node(phase),
                        self.phase_duration_from_trigger(phase))
                for phase in RECOVERY_PHASES if phase in self.phase_ends}

    def describe(self, index):
        """Episode ``index`` as a line block: trigger, total, restarts,
        survivors, marked lines, and each phase's critical node."""
        lines = ["episode %d: trigger %s on node %s at %.3f ms, total "
                 "%.3f ms" % (index, self.trigger_reason, self.trigger_node,
                              self.trigger_time / 1e6,
                              self.total_duration / 1e6),
                 "  %d restart(s), survivors %s, %d lines marked incoherent"
                 % (self.restarts, sorted(self.available_nodes),
                    self.marked_incoherent)]
        for phase, (node, latency) in self.critical_path().items():
            lines.append("  %s done at +%.3f ms (critical node %s)"
                         % (phase, latency / 1e6, node))
        return "\n".join(lines)

    def finish(self, time, epoch):
        """The episode completed at ``time`` with ``epoch``'s pass: derive
        the per-phase aggregates from that pass's spans."""
        self.complete_time = time
        self.final_epoch = epoch
        for phase in RECOVERY_PHASES:
            spans = self.final_spans(phase)
            if not spans:
                continue
            self.phase_ends[phase] = max(span.end for span in spans)
            longest = max(span.duration for span in spans)
            if longest > 0:   # a phase every node passed in zero time has none
                self.phase_durations[phase] = longest

    def __repr__(self):
        return ("<RecoveryReport trigger=%s@%.0f total=%s restarts=%d "
                "marked=%d>" % (self.trigger_reason, self.trigger_time,
                                self.total_duration, self.restarts,
                                self.marked_incoherent))


class RecoveryManager:
    """Coordinates recovery agents for one machine."""

    def __init__(self, sim, params, topology, nodes, failure_units=None,
                 speculative_pings=True, bft_hints=True,
                 os_recovery_callback=None, p4_skip_flush=False):
        self.sim = sim
        self.params = params
        self.topology = topology
        self.nodes = nodes
        self.failure_units = [frozenset(unit) for unit in (
            failure_units or [{n.node_id} for n in nodes])]
        self.speculative_pings = speculative_pings
        self.bft_hints = bft_hints
        self.os_recovery_callback = os_recovery_callback
        self.p4_skip_flush = p4_skip_flush

        self.epoch = 0
        self.in_progress = False
        #: optional callable run once per episode when the first agent
        #: reaches P4 (after drain, before any flush) — the instant at which
        #: no further protocol transitions can occur.  The validation
        #: harness snapshots its oracle here (§5.2).
        self.phase4_hook = None
        self._phase4_hook_fired = False
        #: observation hooks called as ``listener(phase, node_id)`` whenever
        #: any agent enters a recovery phase ("P1".."P4").  Used by the
        #: campaign engine to inject faults at precise recovery moments;
        #: the recovery algorithm itself never depends on them.
        self.phase_entry_listeners = []
        self.trace = None            # telemetry recorder (None: disabled)
        #: eid of the current episode.begin event (forensics §11): phase,
        #: restart, shutdown and end events hang off it, and recovery
        #: traffic every participating MAGIC sends is stamped with it
        self.episode_cause = None
        self._open_spans = {}        # (node, phase, epoch) -> PhaseSpan
        self.agents = {}             # node_id -> RecoveryAgent (this epoch)
        self.report = None
        self.reports = []
        self.recovery_done_events = {}   # node_id -> Event for processors
        self.episode_done = None         # machine-level completion event
        self._restarting = False
        self._cache = {}
        self._gated_survivors = []
        self._gated_report = None

        for node in nodes:
            node.magic.recovery_trigger = self.trigger
            node.magic.set_failure_unit(self.unit_of(node.node_id))

    # ----------------------------------------------------------------- units

    def unit_of(self, node_id):
        for unit in self.failure_units:
            if node_id in unit:
                return unit
        return frozenset({node_id})

    # ------------------------------------------------------------- triggering

    def trigger(self, node_id, reason):
        """A failure detector fired on ``node_id`` (§4.2)."""
        node = self.nodes[node_id]
        if node.failed or node.magic.failed:
            return
        if not self.in_progress:
            self.in_progress = True
            self.epoch += 1
            self._phase4_hook_fired = False
            self.report = RecoveryReport(self.sim.now, node_id, reason)
            self._open_spans = {}
            self.episode_done = Event(self.sim, name="recovery.episode")
            tr = self.trace
            if tr is not None:
                self.episode_cause = tr.emit(
                    "episode", "begin", node=node_id,
                    cause=node.magic.last_trigger_cause,
                    trigger_node=node_id, reason=reason, epoch=self.epoch)
        if node_id in self.agents:
            return   # already recovering in this episode
        self._begin_node(node_id)

    def note_phase_entry(self, phase, node_id):
        """An agent began ``phase``: open its span and inform registered
        observers."""
        if self.in_progress:
            span = PhaseSpan(node_id, phase, self.epoch, self.sim.now)
            tr = self.trace
            if tr is not None:
                span.enter_eid = tr.emit(
                    "phase", "enter", node=node_id, cause=self.episode_cause,
                    phase=phase, epoch=self.epoch)
            self.report.spans.append(span)
            self._open_spans[(node_id, phase, self.epoch)] = span
        for listener in list(self.phase_entry_listeners):
            listener(phase, node_id)

    def note_phase_exit(self, phase, node_id, epoch):
        """An agent finished ``phase``: close its span."""
        span = self._open_spans.pop((node_id, phase, epoch), None)
        cause = self.episode_cause
        if span is not None:
            span.end = self.sim.now
            if span.enter_eid is not None:
                cause = span.enter_eid
        tr = self.trace
        if tr is not None:
            tr.emit("phase", "exit", node=node_id, cause=cause, phase=phase,
                    epoch=epoch)

    def notify_phase4_entry(self):
        """First agent reached P4 (post-drain): fire the episode hook."""
        if self._phase4_hook_fired or self.phase4_hook is None:
            return
        self._phase4_hook_fired = True
        self.phase4_hook()

    def _begin_node(self, node_id):
        node = self.nodes[node_id]
        magic = node.magic
        magic.enter_recovery()
        magic.recovery_cause = (
            None if self.episode_cause is None
            else (None, self.episode_cause))
        magic.set_drain_mode(True)
        magic.last_normal_delivery = self.sim.now
        event = self.recovery_done_events.get(node_id)
        if event is None or event.triggered:
            event = Event(self.sim, name="recdone%d" % node_id)
            self.recovery_done_events[node_id] = event
        node.processor.recovery_done = event
        node.processor.interrupt_for_recovery()

        from repro.recovery.agent import RecoveryAgent
        agent = RecoveryAgent(
            self, node, self.epoch,
            speculative_pings=self.speculative_pings,
            bft_hints=self.bft_hints)
        self.agents[node_id] = agent
        agent.start()

    # ---------------------------------------------------------------- restart

    def request_restart(self, node_id, why):
        """An agent saw a new fault mid-recovery: restart everyone (§4.1)."""
        if self._restarting or not self.in_progress:
            return
        self._restarting = True
        self.report.restart_log.append((self.sim.now, node_id, why))
        tr = self.trace
        if tr is not None:
            tr.emit("episode", "restart", node=node_id,
                    cause=self.episode_cause, reason=why,
                    epoch=self.epoch + 1, restarts=self.report.restarts)
        if self.report.restarts > 8:
            raise RuntimeError(
                "recovery restarted too many times (last: %s)" % why)
        participants = [nid for nid, agent in self.agents.items()
                        if not agent.shutdown]
        stale_agents = list(self.agents.values())
        self.agents = {}
        self.epoch += 1
        self._cache.clear()
        # The restarted P4 re-snapshots the oracle: writebacks the first
        # pass had in flight may be lost with the new fault.
        self._phase4_hook_fired = False
        # Kill the old agents from a fresh event: the requester is still
        # executing its own generator right now and cannot be closed from
        # inside itself.
        self.sim.schedule(0.0, self._restart_begin, participants,
                          stale_agents)

    def _restart_begin(self, participants, stale_agents):
        for agent in stale_agents:
            if agent.proc is not None and agent.proc.alive:
                agent.proc.kill()
        self._restarting = False
        # Re-enter recovery on every node that was participating and is
        # still functional; the ping waves re-discover everyone else.
        for node_id in participants:
            node = self.nodes[node_id]
            if node.failed or node.magic.failed:
                continue
            self._begin_node(node_id)

    # -------------------------------------------------------------- completion

    def agent_complete(self, agent):
        self._merge_report(agent)
        self._check_episode_done()

    def agent_shutdown(self, agent, why):
        """An agent decided its node must stop (split-brain or broken
        failure unit)."""
        self._merge_report(agent)
        self.report.shutdown_nodes.add(agent.node_id)
        tr = self.trace
        if tr is not None:
            tr.emit("episode", "shutdown", node=agent.node_id,
                    cause=self.episode_cause, reason=why, epoch=self.epoch)
        node = self.nodes[agent.node_id]
        node.fail()   # clean stop: the node no longer participates
        self._check_episode_done()

    def _merge_report(self, agent):
        report = self.report
        if agent.wb_mark is not None:
            begin, end = agent.wb_mark
            ends = report.phase_ends
            ends["WB"] = max(end, ends.get("WB", end))
            if end - begin > report.wb_duration:
                report.wb_duration = report.phase_durations["WB"] = (
                    end - begin)
        report.marked_incoherent += agent.marked_incoherent
        report.agent_rounds[agent.node_id] = agent.rounds_executed

    def _check_episode_done(self):
        if self._restarting or not self.in_progress:
            return
        if any(not agent.finished for agent in self.agents.values()):
            return
        # Episode complete.
        self.in_progress = False
        report = self.report
        report.finish(self.sim.now, self.epoch)
        survivors = [nid for nid, agent in self.agents.items()
                     if not agent.shutdown]
        report.available_nodes = set(survivors)
        self.reports.append(report)
        self.agents = {}
        tr = self.trace
        if tr is not None:
            tr.emit("episode", "end", cause=self.episode_cause,
                    epoch=self.epoch, available=len(survivors),
                    marked=report.marked_incoherent,
                    restarts=report.restarts)
        if self.episode_done is not None and not self.episode_done.triggered:
            self.episode_done.trigger(report)
        if self.os_recovery_callback is not None:
            # The node controllers raise an interrupt informing the OS that
            # hardware recovery has run; user-level execution resumes only
            # after the OS calls release_processors() (§4.6).
            self._gated_survivors = list(survivors)
            self._gated_report = report
            self.os_recovery_callback(report)
        else:
            self._release(survivors, report)

    def release_processors(self):
        """OS recovery finished: let user-level execution continue (§4.6)."""
        self._release(self._gated_survivors, self._gated_report)
        self._gated_survivors = []

    def _release(self, survivors, report):
        for node_id in survivors:
            event = self.recovery_done_events.get(node_id)
            if event is not None and not event.triggered:
                event.trigger(report)

    # --------------------------------------- deterministic view computations

    def _memo(self, name, view, builder):
        key = (name, view.signature())
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def adjacency_for_view(self, view):
        return self._memo("adj", view, lambda: surviving_adjacency_from_view(
            self.topology, view))

    def component_for_view(self, view):
        def build():
            adjacency = self.adjacency_for_view(view)
            alive = view.alive_nodes()
            root = min(alive) if alive else 0
            return connected_component(adjacency, root)
        return self._memo("component", view, build)

    def restricted_adjacency_for_view(self, view):
        def build():
            adjacency = self.adjacency_for_view(view)
            component = self.component_for_view(view)
            return {rid: [e for e in entries if e[1] in component]
                    for rid, entries in adjacency.items()
                    if rid in component}
        return self._memo("radj", view, build)

    def bft_height_for_view(self, view):
        """Height of the BFT rooted at the deterministically chosen node
        (the lowest-id functioning node, §4.3)."""
        def build():
            adjacency = self.restricted_adjacency_for_view(view)
            alive = sorted(view.alive_nodes())
            root = alive[0] if alive else min(adjacency)
            return bft_height(adjacency, root)
        return self._memo("bft_height", view, build)

    def cwn_graph_for_view(self, view):
        """The cwn graph: edges between functioning nodes connected by a
        path through failed-controller routers only."""
        def build():
            adjacency = self.restricted_adjacency_for_view(view)
            alive = view.alive_nodes() & set(adjacency)
            edges = {node: set() for node in alive}
            for start in alive:
                frontier = [start]
                seen = {start}
                while frontier:
                    rid = frontier.pop()
                    for _, nbr, _ in adjacency[rid]:
                        if nbr in seen:
                            continue
                        seen.add(nbr)
                        if nbr in alive:
                            edges[start].add(nbr)
                        else:
                            frontier.append(nbr)
            return edges
        return self._memo("cwn", view, build)

    def barrier_tree_for_view(self, view, node_id):
        """(parent, children) of ``node_id`` in the BFS tree of the cwn
        graph, plus source routes to the tree neighbors."""
        def build():
            edges = self.cwn_graph_for_view(view)
            adjacency = {
                node: [(None, nbr, None) for nbr in sorted(nbrs)]
                for node, nbrs in edges.items()
            }
            root = min(adjacency) if adjacency else None
            if root is None:
                return {}
            parent, _ = bfs_tree(adjacency, root)
            children = {node: [] for node in parent}
            for node, par in parent.items():
                if par is not None:
                    children[par].append(node)
            return {node: (parent[node], children[node]) for node in parent}
        trees = self._memo("barrier_tree", view, build)
        tree = trees.get(node_id, (None, []))
        parent, children = tree
        routes = {}
        for neighbor in ([parent] if parent is not None else []) + list(children):
            routes[neighbor] = self.source_route_for_view(
                view, node_id, neighbor)
        return tree, routes

    def routing_tables_for_view(self, view):
        def build():
            adjacency = self.restricted_adjacency_for_view(view)
            dead = view.dead_nodes()
            return compute_up_down_tables(
                adjacency, dead_node_controllers=dead)
        return self._memo("tables", view, build)

    def source_route_for_view(self, view, src, dst):
        return self._memo(
            ("route", src, dst), view, lambda: compute_source_route(
                self.restricted_adjacency_for_view(view), src, dst))

    def available_nodes_for_view(self, view):
        """Apply the failure-unit rule: alive nodes in fully intact units."""
        def build():
            alive = view.alive_nodes()
            down = view.down_links()
            available = set()
            for unit in self.failure_units:
                if not unit <= alive:
                    continue
                intact = True
                for member in unit:
                    for _, nbr, _ in _topology_entries(self.topology, member):
                        if nbr in unit and frozenset((member, nbr)) in down:
                            intact = False
                if intact:
                    available |= unit
            return available & alive
        return self._memo("available", view, build)


def _topology_entries(topology, node_id):
    return [(port, nbr, nbr_port)
            for port, (nbr, nbr_port) in topology.neighbors(node_id).items()]
