"""The assembled interconnect fabric.

Builds one router per node from a :class:`~repro.interconnect.topology.Topology`,
wires the links, attaches a :class:`~repro.interconnect.router.NodeInterface`
per node, and programs the baseline (dimension-ordered / e-cube) routing
tables.  Also exposes the fault-injection and reconfiguration operations the
rest of the system needs:

* ``fail_link`` / ``fail_router`` / ``heal_link`` / ``set_link_drop`` (a
  node's own interface is failed by its MAGIC, :meth:`Magic.fail`);
* per-router ``set_discard_ports`` and ``program_table`` (via the routers);
* helpers to query the *true* surviving graph (used by the fault oracle and
  by tests — the recovery algorithm itself never peeks; it discovers the
  state by probing).
"""

from repro.interconnect.link import Link
from repro.interconnect.router import NodeInterface, Router
from repro.interconnect.routing import surviving_adjacency


class Network:
    """Routers + links + node interfaces for one machine."""

    def __init__(self, sim, params, topology):
        self.sim = sim
        self.params = params
        self.topology = topology
        self.routers = [
            Router(sim, params, rid) for rid in range(topology.num_nodes)]
        self.interfaces = [
            NodeInterface(sim, params, nid)
            for nid in range(topology.num_nodes)]
        self.links = []
        self._link_by_pair = {}
        #: (root id, inject eid) of the most recent injected fault; the
        #: fallback for causal attribution of timeouts whose target
        #: component does not itself record a lineage (forensics §11)
        self.last_fault_lineage = None

        for rid_a, port_a, rid_b, port_b in topology.links():
            link = Link(self.routers[rid_a], port_a,
                        self.routers[rid_b], port_b)
            self.links.append(link)
            self._link_by_pair[frozenset((rid_a, rid_b))] = link
            self.routers[rid_a].attach_link(port_a, link)
            self.routers[rid_b].attach_link(port_b, link)

        for rid, router in enumerate(self.routers):
            router.attach_node(self.interfaces[rid])
            router.program_table(topology.baseline_table(rid))

    def start(self):
        """Schedule every router's first scan and every interface's first
        pump run."""
        for router in self.routers:
            router.start()
        for interface in self.interfaces:
            interface.start()

    # -- lookup -----------------------------------------------------------------

    def link_between(self, rid_a, rid_b):
        return self._link_by_pair.get(frozenset((rid_a, rid_b)))

    def interface(self, node_id):
        return self.interfaces[node_id]

    def router(self, router_id):
        return self.routers[router_id]

    # -- fault injection ----------------------------------------------------------

    def fail_link(self, rid_a, rid_b, lineage=None):
        link = self.link_between(rid_a, rid_b)
        if link is None:
            raise ValueError("no link between %d and %d" % (rid_a, rid_b))
        link.fail(lineage)
        self.routers[rid_a].notify()
        self.routers[rid_b].notify()

    def fail_router(self, router_id, lineage=None):
        """Router failure == the router plus all of its links fail (§4.1)."""
        router = self.routers[router_id]
        router.fail(lineage)
        for link in list(router.links.values()):
            link.fail(lineage)
            other, _ = link.other_side(router_id)
            other.notify()

    def heal_link(self, rid_a, rid_b):
        """Undo a (transient) link failure and wake both endpoint routers.

        A link whose endpoint router has failed stays down: the router
        failure took the link with it, and a healing connector cannot bring
        a dead router back.
        """
        link = self.link_between(rid_a, rid_b)
        if link is None:
            raise ValueError("no link between %d and %d" % (rid_a, rid_b))
        if self.routers[rid_a].failed or self.routers[rid_b].failed:
            return False
        link.heal()
        self.routers[rid_a].notify()
        self.routers[rid_b].notify()
        return True

    def set_link_drop(self, rid_a, rid_b, drop_rate, rng):
        """Arm (rate > 0) or disarm (rate 0) intermittent drops on a link."""
        link = self.link_between(rid_a, rid_b)
        if link is None:
            raise ValueError("no link between %d and %d" % (rid_a, rid_b))
        link.set_drop_rate(drop_rate, rng)
        self.routers[rid_a].notify()
        self.routers[rid_b].notify()

    def fault_lineage_of(self, node_id):
        """Best-effort causal attribution for a silent non-response.

        A timeout on a request to ``node_id`` cannot observe *which* fault
        swallowed the traffic; this mirrors the hardware's situation (paper
        §4.2 timeouts carry no provenance).  We attribute to the target's
        own interface or router fault if one is recorded, else to the most
        recent injected fault — a documented heuristic, exact for
        single-fault runs.
        """
        lineage = self.interfaces[node_id].fault_lineage
        if lineage is not None:
            return lineage
        lineage = self.routers[node_id].fault_lineage
        if lineage is not None:
            return lineage
        return self.last_fault_lineage

    # -- ground-truth state (oracle/tests only) --------------------------------------

    def failed_router_ids(self):
        return {r.router_id for r in self.routers if r.failed}

    def failed_link_pairs(self):
        return {frozenset(l.endpoints()) for l in self.links if l.failed}

    def true_surviving_adjacency(self):
        """Adjacency of the surviving graph (ground truth, not discovered)."""
        return surviving_adjacency(
            self.topology,
            dead_nodes=self.failed_router_ids(),
            dead_links=self.failed_link_pairs())
