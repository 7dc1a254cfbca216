"""Tests for the recovery manager's deterministic view computations and
the recovery communication layer."""

from repro import FlashMachine, MachineConfig
from repro.coherence.messages import MessageKind
from repro.recovery.comm import RecoveryComm
from repro.recovery.view import LinkStatus, NodeStatus, SystemView


def machine(num_nodes=9, **overrides):
    defaults = dict(num_nodes=num_nodes, mem_per_node=1 << 16,
                    l2_size=1 << 13, seed=23)
    defaults.update(overrides)
    return FlashMachine(MachineConfig(**defaults)).start()


def full_view(num_nodes, dead_nodes=(), down_links=()):
    view = SystemView()
    for node_id in range(num_nodes):
        view.observe_node(
            node_id,
            NodeStatus.DEAD if node_id in dead_nodes else NodeStatus.ALIVE)
    for a, b in down_links:
        view.observe_link(a, b, LinkStatus.DOWN)
    return view


class TestManagerComputations:
    def test_cwn_graph_healthy_mesh_is_mesh(self):
        m = machine()
        view = full_view(9)
        edges = m.recovery_manager.cwn_graph_for_view(view)
        # Healthy 3x3 mesh: cwn edges == mesh edges.
        assert edges[4] == {1, 3, 5, 7}
        assert edges[0] == {1, 3}

    def test_cwn_graph_skips_dead_controller(self):
        m = machine()
        # Node 4's controller died (router alive): its neighbors become
        # each other's closest working neighbors through it.
        view = full_view(9, dead_nodes={4})
        edges = m.recovery_manager.cwn_graph_for_view(view)
        assert 4 not in edges
        assert 3 in edges[5] and 1 in edges[7]   # connected through 4

    def test_barrier_tree_consistent_across_nodes(self):
        m = machine()
        view = full_view(9, dead_nodes={8})
        parents = {}
        for node_id in range(8):
            (parent, children), routes = (
                m.recovery_manager.barrier_tree_for_view(view, node_id))
            parents[node_id] = parent
            for child in children:
                assert routes[child] is not None
        # Exactly one root; every non-root has a parent.
        roots = [n for n, p in parents.items() if p is None]
        assert roots == [0]

    def test_available_nodes_excludes_broken_units(self):
        m = machine(failure_units=(frozenset({0, 1}), frozenset({2, 3})))
        view = full_view(9, dead_nodes={3})
        available = m.recovery_manager.available_nodes_for_view(view)
        assert 2 not in available          # unit {2,3} broken
        assert {0, 1} <= available

    def test_available_nodes_excludes_units_with_internal_dead_link(self):
        m = machine(num_nodes=4,
                    failure_units=(frozenset({0, 1}), frozenset({2, 3})))
        view = full_view(4, down_links=[(0, 1)])
        available = m.recovery_manager.available_nodes_for_view(view)
        assert 0 not in available and 1 not in available
        assert {2, 3} <= available

    def test_routing_tables_cached_per_view(self):
        m = machine()
        view_a = full_view(9, dead_nodes={4})
        view_b = full_view(9, dead_nodes={4})
        tables_a = m.recovery_manager.routing_tables_for_view(view_a)
        tables_b = m.recovery_manager.routing_tables_for_view(view_b)
        assert tables_a is tables_b   # memoized on the view signature

    def test_source_route_for_view(self):
        m = machine()
        view = full_view(9, down_links=[(0, 1)])
        route = m.recovery_manager.source_route_for_view(view, 0, 1)
        assert route is not None and len(route) >= 2   # around the cut

    def test_bft_height_uses_lowest_alive_root(self):
        m = machine()
        view = full_view(9)
        height = m.recovery_manager.bft_height_for_view(view)
        # Root = node 0 (corner of the 3x3 mesh): height = its
        # eccentricity = 4.
        assert height == 4


class TestRecoveryComm:
    def make_comm(self, m, node_id=0, epoch=1):
        return RecoveryComm(m.sim, m.params, m.nodes[node_id].magic, epoch)

    def test_receive_times_out(self):
        m = machine(num_nodes=4)
        comm = self.make_comm(m)
        results = []

        def proc():
            packet = yield from comm.receive(
                lambda p: True, deadline=m.sim.now + 10_000)
            results.append(packet)

        m.sim.spawn(proc())
        m.run(until=100_000)
        assert results == [None]

    def test_receive_buffers_non_matching(self):
        m = machine(num_nodes=4)
        comm = self.make_comm(m)
        magic = m.nodes[0].magic
        from repro.interconnect.packet import Packet
        from repro.common.types import Lane
        wanted = Packet(1, 0, Lane.RECOVERY_A, MessageKind.BARRIER_UP,
                        payload={"epoch": 1, "tag": "wanted"})
        unwanted = Packet(2, 0, Lane.RECOVERY_A, MessageKind.DISSEMINATE,
                          payload={"epoch": 1, "tag": "later"})
        magic.recovery_inbox.put(unwanted)
        magic.recovery_inbox.put(wanted)
        results = []

        def proc():
            packet = yield from comm.receive(
                lambda p: p.kind == MessageKind.BARRIER_UP,
                deadline=m.sim.now + 50_000)
            results.append(packet.payload["tag"])
            packet = yield from comm.receive(
                lambda p: p.kind == MessageKind.DISSEMINATE,
                deadline=m.sim.now + 50_000)
            results.append(packet.payload["tag"])

        m.sim.spawn(proc())
        m.run(until=200_000)
        assert results == ["wanted", "later"]

    def test_drain_pending_partitions_in_one_pass(self):
        m = machine(num_nodes=4)
        comm = self.make_comm(m)
        from repro.interconnect.packet import Packet
        from repro.common.types import Lane
        kinds = [MessageKind.DISSEMINATE, MessageKind.BARRIER_UP,
                 MessageKind.DISSEMINATE, MessageKind.BARRIER_DOWN]
        comm._pending = [
            Packet(1, 0, Lane.RECOVERY_A, kind, payload={"tag": index})
            for index, kind in enumerate(kinds)]
        calls = []

        def match(packet):
            calls.append(packet.payload["tag"])
            return packet.kind == MessageKind.DISSEMINATE

        taken = comm.drain_pending(match)
        assert [p.payload["tag"] for p in taken] == [0, 2]
        assert [p.payload["tag"] for p in comm._pending] == [1, 3]
        assert calls == [0, 1, 2, 3]   # match ran once per buffered packet

    def test_stale_epoch_packets_dropped(self):
        m = machine(num_nodes=4)
        comm = self.make_comm(m, epoch=2)
        magic = m.nodes[0].magic
        from repro.interconnect.packet import Packet
        from repro.common.types import Lane
        stale = Packet(1, 0, Lane.RECOVERY_A, MessageKind.BARRIER_UP,
                       payload={"epoch": 1})
        magic.recovery_inbox.put(stale)
        results = []

        def proc():
            packet = yield from comm.receive(
                lambda p: True, deadline=m.sim.now + 20_000)
            results.append(packet)

        m.sim.spawn(proc())
        m.run(until=100_000)
        assert results == [None]

    def test_auto_handler_consumes(self):
        m = machine(num_nodes=4)
        comm = self.make_comm(m)
        magic = m.nodes[0].magic
        seen = []
        comm.auto_handlers[MessageKind.PING] = (
            lambda p: seen.append(p.payload["epoch"]))
        from repro.interconnect.packet import Packet
        from repro.common.types import Lane
        magic.recovery_inbox.put(
            Packet(1, 0, Lane.RECOVERY_A, MessageKind.PING,
                   payload={"epoch": 1}))
        results = []

        def proc():
            packet = yield from comm.receive(
                lambda p: True, deadline=m.sim.now + 20_000)
            results.append(packet)

        m.sim.spawn(proc())
        m.run(until=100_000)
        assert seen == [1]
        assert results == [None]   # the ping was consumed, not matched

    def test_handler_registered_later_takes_buffered_packet_once(self):
        m = machine(num_nodes=4)
        comm = self.make_comm(m)
        magic = m.nodes[0].magic
        from repro.interconnect.packet import Packet
        from repro.common.types import Lane
        for kind in (MessageKind.DISSEMINATE, MessageKind.BARRIER_UP):
            magic.recovery_inbox.put(
                Packet(1, 0, Lane.RECOVERY_A, kind, payload={"epoch": 1}))
        calls = []                   # sim time of each handler call
        marks = {}

        def never(packet):
            return False

        def proc():
            # No handler for either kind yet: both are buffered.
            yield from comm.receive(never, deadline=m.sim.now + 1_000)
            assert len(comm._pending) == 2
            comm.auto_handlers[MessageKind.DISSEMINATE] = (
                lambda packet: calls.append(m.sim.now))
            marks["registered"] = m.sim.now
            yield 5_000.0
            marks["receive"] = m.sim.now
            yield from comm.receive(never, deadline=m.sim.now + 1_000)
            for _ in range(3):
                yield from comm.receive(never, deadline=m.sim.now + 1_000)

        m.sim.spawn(proc())
        m.run(until=100_000)
        assert marks["receive"] > marks["registered"]
        assert calls == [marks["receive"]]
        assert [p.kind for p in comm._pending] == [MessageKind.BARRIER_UP]
