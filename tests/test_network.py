"""Functional tests for the assembled interconnect fabric."""

from collections import Counter

import pytest

from repro.coherence.messages import MessageKind, make_packet
from repro.common.params import TimingParams
from repro.common.types import Lane
from repro.interconnect.network import Network
from repro.interconnect.router import NodeInterface, Router
from repro.interconnect.packet import Packet, ROUTER_PROBE, ROUTER_PROBE_REPLY
from repro.interconnect.routing import compute_source_route
from repro.interconnect.topology import Mesh2D
from repro.sim import Simulator
from repro.telemetry.trace import TraceRecorder
from tests.helpers import buffered_packets


def build(width=3, height=3, **param_overrides):
    sim = Simulator(seed=1)
    params = TimingParams(**param_overrides)
    network = Network(sim, params, Mesh2D(width, height))
    network.start()
    return sim, params, network


def drain_all(sim, network, node_id, collected):
    """Consumer process storing every packet delivered to ``node_id``."""
    interface = network.interface(node_id)

    def consumer():
        while True:
            packet = yield interface.receive()
            collected.append((sim.now, packet))

    return sim.spawn(consumer(), name="drain%d" % node_id)


class TestDelivery:
    def test_single_packet_delivered(self):
        sim, _, network = build()
        received = []
        drain_all(sim, network, 8, received)
        network.interface(0).send(
            Packet(src=0, dst=8, lane=Lane.REQUEST, kind="test"))
        sim.run(until=1_000_000)
        assert len(received) == 1
        assert received[0][1].kind == "test"
        assert received[0][1].hops == 4   # 0 -> 8 in a 3x3 mesh

    def test_latency_scales_with_hops(self):
        sim, params, network = build(4, 1)
        received = []
        drain_all(sim, network, 1, received)
        drain_all(sim, network, 3, received)
        network.interface(0).send(
            Packet(src=0, dst=1, lane=Lane.REQUEST, kind="near"))
        network.interface(0).send(
            Packet(src=0, dst=3, lane=Lane.REQUEST, kind="far"))
        sim.run(until=1_000_000)
        by_kind = {p.kind: t for t, p in received}
        assert by_kind["far"] > by_kind["near"]

    def test_in_order_delivery_same_lane(self):
        sim, _, network = build()
        received = []
        drain_all(sim, network, 4, received)
        for seq in range(10):
            network.interface(0).send(
                Packet(src=0, dst=4, lane=Lane.REQUEST,
                       kind="seq", payload=seq))
        sim.run(until=1_000_000)
        assert [p.payload for _, p in received] == list(range(10))

    def test_bidirectional_traffic(self):
        sim, _, network = build()
        received_a, received_b = [], []
        drain_all(sim, network, 0, received_a)
        drain_all(sim, network, 8, received_b)
        network.interface(0).send(
            Packet(src=0, dst=8, lane=Lane.REQUEST, kind="ab"))
        network.interface(8).send(
            Packet(src=8, dst=0, lane=Lane.REQUEST, kind="ba"))
        sim.run(until=1_000_000)
        assert len(received_a) == 1 and len(received_b) == 1

    def test_many_to_one_all_delivered(self):
        sim, _, network = build()
        received = []
        drain_all(sim, network, 4, received)
        for src in range(9):
            if src == 4:
                continue
            for i in range(5):
                network.interface(src).send(
                    Packet(src=src, dst=4, lane=Lane.REQUEST,
                           kind="m", payload=(src, i)))
        sim.run(until=10_000_000)
        assert len(received) == 40


class TestSourceRouting:
    def test_source_routed_packet_follows_route(self):
        sim, _, network = build(3, 1)
        received = []
        drain_all(sim, network, 2, received)
        route = [Mesh2D.EAST, Mesh2D.EAST]
        network.interface(0).send(
            Packet(src=0, dst=2, lane=Lane.RECOVERY_A, kind="sr",
                   source_route=route))
        sim.run(until=1_000_000)
        assert len(received) == 1
        assert received[0][1].trace_ports == [Mesh2D.WEST, Mesh2D.WEST]

    def test_reversed_trace_reaches_origin(self):
        sim, _, network = build(3, 3)
        received = []
        drain_all(sim, network, 0, received)
        adjacency = network.true_surviving_adjacency()
        route = compute_source_route(adjacency, 8, 0)
        network.interface(8).send(
            Packet(src=8, dst=0, lane=Lane.RECOVERY_A, kind="fwd",
                   source_route=route))
        sim.run(until=1_000_000)
        assert len(received) == 1
        reply_route = list(reversed(received[0][1].trace_ports))
        received_back = []
        drain_all(sim, network, 8, received_back)
        network.interface(0).send(
            Packet(src=0, dst=8, lane=Lane.RECOVERY_A, kind="reply",
                   source_route=reply_route))
        sim.run(until=2_000_000)
        assert len(received_back) == 1


class TestRouterProbes:
    def test_probe_answered_by_live_router(self):
        sim, _, network = build(2, 1)
        received = []
        drain_all(sim, network, 0, received)
        network.interface(0).send(
            Packet(src=0, dst=None, lane=Lane.RECOVERY_A,
                   kind=ROUTER_PROBE, source_route=[Mesh2D.EAST]))
        sim.run(until=1_000_000)
        assert len(received) == 1
        reply = received[0][1]
        assert reply.kind == ROUTER_PROBE_REPLY
        assert reply.payload["router_id"] == 1

    def test_probe_into_failed_router_unanswered(self):
        sim, _, network = build(2, 1)
        received = []
        drain_all(sim, network, 0, received)
        network.fail_router(1)
        network.interface(0).send(
            Packet(src=0, dst=None, lane=Lane.RECOVERY_A,
                   kind=ROUTER_PROBE, source_route=[Mesh2D.EAST]))
        sim.run(until=1_000_000)
        assert received == []

    def test_probe_answered_when_node_dead_but_router_alive(self):
        sim, _, network = build(2, 1)
        received = []
        drain_all(sim, network, 0, received)
        network.interface(1).fail()   # node dead, router powered
        network.interface(0).send(
            Packet(src=0, dst=None, lane=Lane.RECOVERY_A,
                   kind=ROUTER_PROBE, source_route=[Mesh2D.EAST]))
        sim.run(until=1_000_000)
        assert len(received) == 1


class TestFailures:
    def test_failed_node_sinks_packets(self):
        sim, _, network = build(2, 1)
        network.interface(1).fail()
        network.interface(0).send(
            Packet(src=0, dst=1, lane=Lane.REQUEST, kind="doomed"))
        sim.run(until=1_000_000)
        assert len(network.interface(1).inbox) == 0

    def test_failed_link_black_holes_traffic(self):
        sim, _, network = build(2, 1)
        received = []
        drain_all(sim, network, 1, received)
        network.fail_link(0, 1)
        network.interface(0).send(
            Packet(src=0, dst=1, lane=Lane.REQUEST, kind="doomed"))
        sim.run(until=1_000_000)
        assert received == []
        assert network.router(0).stats.dropped_link == 1

    def test_link_failure_truncates_in_flight_packet(self):
        sim, params, network = build(2, 1)
        received = []
        drain_all(sim, network, 1, received)
        network.interface(0).send(
            Packet(src=0, dst=1, lane=Lane.REQUEST, kind="data",
                   payload="precious", flits=9))
        # Let the transfer start, then fail the link mid-flight.
        transfer_start = 5.0
        sim.run(until=transfer_start)
        # The packet should now be on the wire.
        link = network.link_between(0, 1)
        assert link.in_flight, "expected packet in flight"
        network.fail_link(0, 1)
        sim.run(until=1_000_000)
        assert len(received) == 1
        packet = received[0][1]
        assert packet.truncated
        assert packet.payload is None

    def test_failed_router_drops_buffered_packets(self):
        # Nothing drains node 2, so the flood backs up into router 1's
        # buffers; then fail router 1: whatever it held must be lost.
        sim, _, network = build(3, 1, magic_inbox_capacity=1,
                                buffer_capacity=1)
        for _ in range(6):
            network.interface(0).send(
                Packet(src=0, dst=2, lane=Lane.REQUEST, kind="through"))
        sim.run(until=100_000)
        assert network.router(1).buffered_packet_count() >= 1
        network.fail_router(1)
        sim.run(until=1_000_000)
        assert network.router(1).stats.dropped_failed >= 1
        assert network.router(1).buffered_packet_count() == 0

    def test_wedged_interface_backs_up_traffic(self):
        """A controller that stops draining its inbox congests the fabric
        (paper §3.1: infinite-loop firmware fault).  Nothing drains node 2
        here, which is all a wedged MAGIC does to its interface."""
        sim, params, network = build(3, 1, magic_inbox_capacity=2,
                                     buffer_capacity=2)
        for i in range(30):
            network.interface(0).send(
                Packet(src=0, dst=2, lane=Lane.REQUEST,
                       kind="flood", payload=i))
        sim.run(until=5_000_000)
        # Traffic must be stuck: buffered in routers or in the source outbox,
        # with the undrained inbox full.
        inbox_depth = len(network.interface(2).inbox)
        assert inbox_depth <= params.magic_inbox_capacity
        stuck = (buffered_packets(network)
                 + len(network.interface(0)._outbox)
                 + inbox_depth)
        assert stuck >= 25

    def test_congestion_blocks_unrelated_traffic(self):
        """Back-pressure from an undrained node delays traffic that shares
        links."""
        sim, params, network = build(4, 1, magic_inbox_capacity=1,
                                     buffer_capacity=1)
        for i in range(20):
            network.interface(0).send(
                Packet(src=0, dst=3, lane=Lane.REQUEST, kind="flood"))
        sim.run(until=100_000)
        received = []
        drain_all(sim, network, 2, received)
        # A packet from 1 to 2 must cross links shared with the flood.
        network.interface(1).send(
            Packet(src=1, dst=2, lane=Lane.REQUEST, kind="innocent"))
        sim.run(until=200_000)
        assert received == []   # stuck behind the congestion


class TestFlushBarrierOrdering:
    def test_flush_done_trails_a_backed_up_writeback(self):
        """§4.5: FLUSH_DONE rides behind the sender's PUTs.  With the
        receiver's inbox full and the request lane backed up from it, a
        FLUSH_DONE on any other lane would overtake the queued PUT."""
        sim, params, network = build(4, 1, magic_inbox_capacity=1,
                                     buffer_capacity=1)
        sender = network.interface(0)
        for line in range(6):
            sender.send(make_packet(params, 0, 3, MessageKind.GET,
                                    {"line": line}))
        sender.send(make_packet(params, 0, 3, MessageKind.PUT,
                                {"line": 99}))
        sender.send(make_packet(params, 0, 3, MessageKind.FLUSH_DONE,
                                {"sender": 0}))
        sim.run(until=100_000)
        assert buffered_packets(network) >= 3   # lane backed up
        received = []
        drain_all(sim, network, 3, received)
        sim.run(until=1_000_000)
        kinds = [packet.kind for _, packet in received]
        assert kinds.index(MessageKind.PUT) < kinds.index(
            MessageKind.FLUSH_DONE)


class TestRecoveryLaneStallDiscard:
    def test_stalled_recovery_packets_discarded(self):
        """Recovery lanes never stay congested (paper §4.1)."""
        sim, params, network = build(3, 1, recovery_stall_discard=1_000.0,
                                     recovery_buffer_capacity=2,
                                     magic_inbox_capacity=2)
        # Nothing drains node 1: its inbox fills, recovery packets stall at
        # router 1 and must be discarded rather than congest the recovery
        # lane.
        for i in range(10):
            network.interface(0).send(
                Packet(src=0, dst=1, lane=Lane.RECOVERY_A, kind="rec",
                       source_route=[Mesh2D.EAST]))
        sim.run(until=10_000_000)
        # All packets either delivered (up to inbox capacity) or discarded;
        # nothing remains buffered in the fabric.
        assert buffered_packets(network) == 0
        assert network.router(1).stats.dropped_stall >= 1

    def test_normal_lanes_do_not_stall_discard(self):
        sim, params, network = build(3, 1, recovery_stall_discard=1_000.0)
        for i in range(30):
            network.interface(0).send(
                Packet(src=0, dst=1, lane=Lane.REQUEST, kind="norm"))
        sim.run(until=10_000_000)
        assert network.router(0).stats.dropped_stall == 0
        assert network.router(1).stats.dropped_stall == 0


class TestDiscardPorts:
    def test_discard_port_drops_traffic(self):
        sim, _, network = build(3, 1)
        received = []
        drain_all(sim, network, 2, received)
        network.router(1).set_discard_ports({Mesh2D.EAST})
        network.interface(0).send(
            Packet(src=0, dst=2, lane=Lane.REQUEST, kind="blocked"))
        sim.run(until=1_000_000)
        assert received == []
        assert network.router(1).stats.dropped_discard == 1

    def test_clearing_discard_restores_traffic(self):
        sim, _, network = build(3, 1)
        received = []
        drain_all(sim, network, 2, received)
        network.router(1).set_discard_ports({Mesh2D.EAST})
        network.interface(0).send(
            Packet(src=0, dst=2, lane=Lane.REQUEST, kind="first"))
        sim.run(until=100_000)
        network.router(1).set_discard_ports(set())
        network.interface(0).send(
            Packet(src=0, dst=2, lane=Lane.REQUEST, kind="second"))
        sim.run(until=1_000_000)
        assert [p.kind for _, p in received] == ["second"]


class TestReprogramming:
    def test_traffic_follows_new_tables(self):
        sim, _, network = build(2, 2)
        received = []
        drain_all(sim, network, 3, received)
        # Break the dimension-ordered path 0 -> 1 -> 3 by failing link 0-1,
        # then reprogram tables to go 0 -> 2 -> 3.
        network.fail_link(0, 1)
        from repro.interconnect.routing import (
            compute_up_down_tables, surviving_adjacency)
        adjacency = surviving_adjacency(
            network.topology, dead_links=[(0, 1)])
        tables = compute_up_down_tables(adjacency)
        for rid, table in tables.items():
            network.router(rid).program_table(table)
        network.interface(0).send(
            Packet(src=0, dst=3, lane=Lane.REQUEST, kind="rerouted"))
        sim.run(until=1_000_000)
        assert len(received) == 1
        assert received[0][1].hops == 2


class TestGroundTruth:
    def test_true_adjacency_reflects_failures(self):
        sim, _, network = build(3, 3)
        network.fail_router(4)
        network.fail_link(0, 1)
        adjacency = network.true_surviving_adjacency()
        assert 4 not in adjacency
        assert all(nbr != 1 for _, nbr, _ in adjacency[0])

    def test_no_link_between_non_neighbors(self):
        sim, _, network = build(3, 3)
        with pytest.raises(ValueError):
            network.fail_link(0, 8)


class TestDropTelemetry:
    def test_local_delivery_without_interface_emits_drop(self):
        sim, _, network = build(2, 1)
        network.router(1).node_interface = None
        recorder = network.router(1).trace = TraceRecorder(sim)
        network.interface(0).send(
            Packet(src=0, dst=1, lane=Lane.REQUEST, kind="orphan"))
        sim.run(until=1_000_000)
        assert network.router(1).stats.dropped_unroutable == 1
        assert [(event.name, event.data["reason"])
                for event in recorder.events] == [("drop", "no_interface")]


class TestCoalescedWakeups:
    """Routers and NI pumps are callbacks on the heap under a pending
    flag: however many notifications arrive while one scan or pump run
    is outstanding, one event is scheduled (DESIGN.md §12)."""

    def idle(self, width=2, height=1):
        sim, params, network = build(width, height)
        sim.run()
        assert sim.pending_events == 0
        return sim, network

    def test_many_notifies_cost_one_event(self):
        sim, network = self.idle()
        router = network.router(0)
        for _ in range(5):
            router.notify()
        assert sim.pending_events == 1
        before = sim.events_executed
        sim.run()
        assert sim.events_executed == before + 1

    def test_notify_from_own_scan_yields_one_rescan_same_timestamp(self):
        sim, network = self.idle()
        router = network.router(1)
        scans = []                   # (time, probes answered by this scan)
        scan = router._run

        def counted_scan():
            answered = router.stats.probes_answered
            scan()
            scans.append((sim.now, router.stats.probes_answered - answered))

        router._run = counted_scan
        received = []
        drain_all(sim, network, 0, received)
        network.interface(0).send(
            Packet(src=0, dst=None, lane=Lane.RECOVERY_A,
                   kind=ROUTER_PROBE, source_route=[Mesh2D.EAST]))
        sim.run()
        # The reply goes into the local-port buffer, which the answering
        # scan has already passed: _inject_reply's notify() must turn
        # into exactly one rescan, at the same timestamp.
        answering = [i for i, (_, answered) in enumerate(scans) if answered]
        assert len(answering) == 1
        when = scans[answering[0]][0]
        assert [t for t, _ in scans[answering[0] + 1:] if t == when] == [when]
        assert router.stats.forwarded == 1
        assert [p.kind for _, p in received] == [ROUTER_PROBE_REPLY]

    def test_failed_router_notify_costs_one_event_and_rearms(self):
        sim, network = self.idle()
        network.fail_router(1)
        sim.run()
        router = network.router(1)
        for _ in range(2):
            before = sim.events_executed
            router.notify()
            router.notify()
            assert sim.pending_events == 1
            sim.run()
            assert sim.events_executed == before + 1

    def test_many_sends_before_the_pump_runs_cost_one_pump_event(self):
        sim, network = self.idle()
        for seq in range(4):
            network.interface(0).send(
                Packet(src=0, dst=1, lane=Lane.REQUEST, kind="seq",
                       payload=seq))
        assert sim.pending_events == 1
        assert len(network.interface(0)._outbox) == 4
        sim.step()
        assert len(network.interface(0)._outbox) == 0

    def test_kicks_before_start_schedule_nothing(self):
        sim = Simulator(seed=1)
        network = Network(sim, TimingParams(), Mesh2D(2, 1))
        network.interface(0).send(
            Packet(src=0, dst=1, lane=Lane.REQUEST, kind="early"))
        network.router(0).notify()
        assert sim.pending_events == 0
        # The first pump run after start() still drains what was queued.
        network.start()
        received = []
        drain_all(sim, network, 1, received)
        sim.run()
        assert [p.kind for _, p in received] == ["early"]


class AfterEvent:
    """A ``Simulator.profiler`` stand-in that runs ``check()`` after every
    event: dispatch is the one hook every event passes through."""

    def __init__(self, check):
        self.check = check

    def dispatch(self, callback, args):
        callback(*args)
        self.check()


def fabric_burst(after_event=None):
    """8-node mesh, input buffers of 2: every node sends 6 packets to
    every other, alternating REQUEST/REPLY; link 1-2 fails mid-burst.
    ``after_event(network)``, when given, runs after every event."""
    sim = Simulator(seed=1)
    network = Network(sim, TimingParams(buffer_capacity=2), Mesh2D(4, 2))
    if after_event is not None:
        sim.profiler = AfterEvent(lambda: after_event(network))
    network.start()
    deliveries = []
    index_of = {}                    # uid -> per-source index

    def consumer(node):
        interface = network.interface(node)
        while True:
            packet = yield interface.receive()
            deliveries.append(
                (sim.now, node, packet.src, index_of[packet.uid]))

    for node in range(8):
        sim.spawn(consumer(node), name="drain%d" % node)
    for index in range(6):
        for src in range(8):
            for dst in range(8):
                if dst != src:
                    packet = Packet(
                        src=src, dst=dst, kind="burst",
                        lane=Lane.REPLY if index % 2 else Lane.REQUEST)
                    network.interface(src).send(packet)
                    index_of[packet.uid] = index     # stamped by send
    sim.schedule(400.0, network.fail_link, 1, 2)
    sim.run()
    return sim, network, deliveries


#: ``(time, node, src, per-source index)`` of every delivery of
#: :func:`fabric_burst`, captured at the last commit whose routers and NI
#: pumps were generator processes.
PINNED_BURST_DELIVERIES = (
    (140, 1, 0, 0), (140, 0, 1, 0), (140, 2, 1, 0), (160, 1, 2, 0),
    (160, 3, 2, 0), (160, 2, 6, 0), (160, 5, 1, 0), (160, 0, 4, 0),
    (160, 4, 5, 0), (180, 0, 1, 1), (180, 2, 1, 1), (180, 1, 5, 0),
    (200, 4, 5, 1), (200, 5, 1, 1), (200, 1, 5, 1), (210, 0, 5, 0),
    (210, 2, 5, 0), (220, 6, 5, 0), (220, 4, 0, 0), (220, 1, 4, 0),
    (230, 3, 1, 0), (230, 0, 2, 0), (240, 6, 2, 0), (240, 4, 1, 0),
    (250, 3, 6, 0), (250, 0, 1, 2), (250, 2, 5, 1), (250, 1, 5, 2),
    (260, 6, 5, 1), (270, 3, 1, 1), (270, 4, 1, 1), (270, 2, 6, 1),
    (270, 0, 5, 1), (290, 3, 2, 1), (290, 6, 1, 0), (290, 0, 6, 0),
    (290, 1, 6, 0), (290, 4, 6, 0), (290, 5, 6, 0), (300, 2, 3, 0),
    (310, 3, 5, 0), (310, 7, 6, 0), (310, 5, 2, 0), (310, 0, 5, 2),
    (320, 1, 3, 0), (320, 2, 1, 2), (330, 6, 1, 1), (330, 5, 1, 2),
    (330, 7, 5, 0), (330, 4, 5, 2), (330, 3, 7, 0), (340, 0, 1, 3),
    (340, 2, 1, 3), (340, 1, 6, 1), (350, 3, 6, 1), (350, 7, 6, 1),
    (360, 2, 5, 2), (360, 5, 1, 3), (360, 1, 2, 1), (370, 4, 2, 0),
    (370, 6, 5, 2), (370, 7, 2, 0), (370, 3, 5, 1), (380, 0, 3, 0),
    (380, 1, 5, 3), (380, 5, 6, 1), (390, 3, 1, 2), (390, 4, 1, 2),
    (390, 2, 6, 2), (390, 7, 5, 1), (400, 0, 6, 1), (410, 7, 1, 0),
    (410, 4, 5, 3), (420, 0, 1, 4), (420, 2, 5, 3), (420, 1, 5, 4),
    (430, 3, 1, 3), (430, 4, 1, 3), (430, 7, 1, 1), (440, 6, 5, 3),
    (440, 0, 2, 1), (450, 4, 6, 1), (450, 7, 3, 0), (460, 0, 7, 0),
    (460, 6, 2, 1), (460, 1, 6, 2), (470, 2, 1, 4), (470, 3, 6, 2),
    (480, 6, 1, 2), (480, 5, 6, 2), (480, 7, 6, 2), (480, 0, 5, 3),
    (490, 3, 5, 2), (490, 1, 2, 2), (500, 6, 1, 3), (500, 5, 1, 4),
    (500, 7, 5, 2), (500, 4, 5, 4), (500, 0, 5, 4), (510, 2, 1, 5),
    (510, 3, 2, 2), (520, 7, 2, 1), (520, 1, 5, 5), (520, 0, 1, 5),
    (530, 4, 3, 0), (530, 2, 6, 3), (530, 3, 5, 3), (530, 5, 1, 5),
    (540, 6, 5, 4), (540, 0, 6, 2), (550, 7, 5, 3), (550, 2, 3, 1),
    (550, 4, 6, 2), (550, 3, 2, 3), (560, 6, 3, 0), (560, 0, 2, 2),
    (570, 7, 1, 2), (570, 2, 5, 4), (570, 4, 5, 5), (580, 6, 2, 2),
    (580, 3, 2, 4), (590, 7, 1, 3), (590, 0, 5, 5), (590, 2, 7, 0),
    (590, 1, 0, 1), (590, 4, 1, 4), (590, 5, 2, 1), (600, 3, 6, 3),
    (600, 6, 5, 5), (610, 1, 7, 0), (610, 2, 5, 5), (610, 4, 1, 5),
    (620, 5, 0, 0), (620, 6, 2, 3), (620, 3, 2, 5), (620, 0, 4, 1),
    (630, 7, 2, 2), (630, 1, 6, 3), (640, 3, 5, 4), (640, 6, 2, 4),
    (640, 5, 4, 0), (640, 2, 6, 4), (660, 4, 6, 3), (660, 3, 1, 4),
    (660, 5, 6, 3), (660, 0, 6, 3), (660, 6, 2, 5), (670, 7, 6, 3),
    (680, 4, 2, 1), (680, 3, 7, 1), (690, 7, 5, 4), (690, 2, 4, 0),
    (700, 1, 0, 2), (700, 3, 5, 5), (700, 4, 0, 1), (710, 7, 5, 5),
    (710, 5, 6, 4), (710, 2, 3, 2), (720, 3, 6, 4), (720, 1, 6, 4),
    (730, 7, 6, 4), (740, 1, 4, 1), (750, 5, 4, 1), (750, 0, 6, 4),
    (750, 6, 3, 1), (750, 2, 6, 5), (750, 7, 2, 4), (760, 4, 6, 4),
    (770, 0, 4, 2), (770, 5, 0, 1), (770, 7, 2, 3), (770, 6, 7, 0),
    (770, 3, 1, 5), (780, 4, 0, 2), (790, 5, 7, 0), (790, 7, 3, 1),
    (790, 6, 4, 0), (800, 2, 4, 1), (810, 0, 7, 1), (810, 7, 3, 2),
    (820, 1, 0, 3), (820, 3, 6, 5), (830, 5, 6, 5), (830, 7, 6, 5),
    (840, 1, 4, 2), (840, 4, 7, 0), (840, 3, 4, 0), (850, 7, 2, 5),
    (860, 1, 6, 5), (870, 5, 4, 2), (870, 0, 6, 5), (870, 6, 3, 2),
    (870, 7, 4, 0), (880, 4, 6, 5), (880, 2, 7, 1), (890, 0, 4, 3),
    (890, 5, 0, 2), (890, 6, 4, 1), (900, 4, 0, 3), (900, 2, 3, 3),
    (930, 2, 4, 2), (940, 1, 0, 4), (950, 3, 4, 1), (960, 1, 7, 1),
    (960, 6, 7, 1), (970, 7, 4, 1), (980, 1, 4, 3), (980, 3, 7, 2),
    (990, 5, 4, 3), (990, 0, 4, 4), (1000, 6, 4, 2), (1010, 5, 7, 1),
    (1020, 4, 7, 1), (1030, 5, 0, 3), (1030, 7, 3, 3), (1040, 4, 0, 4),
    (1050, 2, 7, 2), (1060, 1, 0, 5), (1060, 3, 4, 2), (1070, 2, 3, 4),
    (1080, 1, 7, 2), (1080, 6, 7, 2), (1090, 7, 4, 2), (1090, 2, 4, 3),
    (1100, 6, 3, 3), (1100, 3, 7, 3), (1100, 1, 4, 4), (1110, 5, 4, 4),
    (1110, 0, 7, 2), (1120, 6, 4, 3), (1130, 5, 7, 2), (1130, 0, 4, 5),
    (1140, 4, 7, 2), (1150, 5, 0, 4), (1160, 4, 0, 5), (1160, 7, 3, 4),
    (1170, 2, 7, 3), (1180, 1, 7, 3), (1180, 3, 4, 3), (1190, 2, 4, 4),
    (1200, 1, 4, 5), (1200, 6, 7, 3), (1210, 7, 4, 3), (1220, 3, 7, 4),
    (1230, 5, 4, 5), (1230, 0, 7, 3), (1230, 6, 3, 4), (1250, 5, 7, 3),
    (1250, 2, 3, 5), (1250, 6, 4, 4), (1260, 4, 7, 3), (1270, 5, 0, 5),
    (1290, 2, 7, 4), (1300, 1, 7, 4), (1300, 3, 4, 4), (1310, 2, 4, 5),
    (1320, 6, 7, 4), (1330, 7, 4, 4), (1340, 3, 7, 5), (1350, 0, 7, 4),
    (1350, 7, 3, 5), (1350, 6, 4, 5), (1370, 5, 7, 4), (1380, 4, 7, 4),
    (1410, 2, 7, 5), (1410, 6, 3, 5), (1420, 1, 7, 5), (1420, 3, 4, 5),
    (1430, 6, 7, 5), (1440, 7, 4, 5), (1470, 0, 7, 5), (1480, 5, 7, 5),
    (1500, 4, 7, 5),
)


def test_fabric_burst_matches_pinned_event_stream():
    # Literals captured before routers and pumps became scheduled
    # callbacks.  A difference means an event was added, dropped or
    # reordered in the fabric — fix the scheduling, do not re-pin.
    sim, network, deliveries = fabric_burst()
    assert (sim.now, sim.events_executed) == (1500.0, 4017)
    stats = [router.stats for router in network.routers]
    assert [s.forwarded for s in stats] == [51, 53, 51, 52, 60, 108, 108, 60]
    assert [s.delivered_local for s in stats] == [
        34, 34, 36, 36, 33, 32, 34, 34]
    assert [s.dropped_link for s in stats] == [0, 28, 35, 0, 0, 0, 0, 0]
    assert tuple(deliveries) == PINNED_BURST_DELIVERIES


def assert_occupancy_masks_match(network):
    """Each router's scan mask names exactly its non-empty buffers."""
    for router in network.routers:
        occupied = sum(buffer.bit for buffer in router._scan_order
                       if buffer.queue)
        assert router._occupied == occupied, router


def assert_credits_conserved(network):
    """Every credit a live router's buffer or any node interface has
    handed out is owed to a transfer or delivery still on the heap.
    Returns the number of credits outstanding."""
    transfers, deliveries = Counter(), Counter()
    for fifo in network.sim._fifos.values():
        for callback, args in fifo:
            function = getattr(callback, "__func__", None)
            if function is Router._complete_transfer:
                transfers[id(args[0].buffer)] += 1
            elif function is NodeInterface.complete_delivery:
                deliveries[id(callback.__self__)] += 1
    outstanding = 0
    for router in network.routers:
        if router.failed:
            continue                 # sinks every arrival; never reads them
        for buffer in router._scan_order:
            assert buffer.reserved == transfers[id(buffer)], (
                router, buffer.port, buffer.lane)
            outstanding += buffer.reserved
    for interface in network.interfaces:
        assert interface._reserved == deliveries[id(interface)], interface
        outstanding += interface._reserved
    return outstanding


class TestCreditConservation:
    """The credit counts in ``Router.receive`` and
    ``NodeInterface.complete_delivery`` are plain decrements: these runs
    show no arrival ever finds its credit missing."""

    def checked_run(self, network, until=None):
        outstanding = []
        network.sim.profiler = AfterEvent(
            lambda: outstanding.append(assert_credits_conserved(network)))
        network.sim.run(until=until)
        return outstanding

    def test_credits_conserved_through_burst(self):
        outstanding = []
        sim, _, deliveries = fabric_burst(
            after_event=lambda network: outstanding.append(
                assert_credits_conserved(network)))
        assert len(outstanding) == sim.events_executed == 4017
        assert max(outstanding) > 0 and outstanding[-1] == 0
        assert tuple(deliveries) == PINNED_BURST_DELIVERIES

    def test_credits_conserved_through_router_failure(self):
        sim, _, network = build(3, 1, magic_inbox_capacity=1,
                                buffer_capacity=1)
        for src, dst in ((0, 2), (2, 0)):
            drain_all(sim, network, dst, [])
            for _ in range(6):
                network.interface(src).send(
                    Packet(src=src, dst=dst, lane=Lane.REQUEST, kind="x"))
        sim.schedule(150.0, network.fail_router, 1)
        outstanding = self.checked_run(network, until=1_000_000)
        assert network.router(1).failed and max(outstanding) > 0
        assert network.router(1).stats.dropped_failed > 0
        assert outstanding[-1] == 0

    def test_credits_conserved_through_link_failure(self):
        sim, _, network = build(3, 1, buffer_capacity=1)
        for src, dst in ((0, 2), (2, 0)):
            drain_all(sim, network, dst, [])
            for _ in range(6):
                network.interface(src).send(
                    Packet(src=src, dst=dst, lane=Lane.REQUEST, kind="x"))
        sim.schedule(150.0, network.fail_link, 0, 1)
        outstanding = self.checked_run(network, until=1_000_000)
        assert network.link_between(0, 1).failed and max(outstanding) > 0
        assert sum(r.stats.dropped_link for r in network.routers) > 0
        assert outstanding[-1] == 0


class TestOccupancyMask:
    def test_mask_tracks_buffers_through_burst(self):
        checked = []

        def check(network):
            assert_occupancy_masks_match(network)
            checked.append(network.sim.now)

        sim, _, deliveries = fabric_burst(after_event=check)
        assert len(checked) == sim.events_executed == 4017
        assert tuple(deliveries) == PINNED_BURST_DELIVERIES

    def test_mask_tracks_buffers_through_router_failure(self):
        sim, _, network = build(3, 1, magic_inbox_capacity=1,
                                buffer_capacity=1)
        sim.profiler = AfterEvent(
            lambda: assert_occupancy_masks_match(network))
        for _ in range(6):
            network.interface(0).send(
                Packet(src=0, dst=2, lane=Lane.REQUEST, kind="through"))
        sim.run(until=100_000)
        assert network.router(1)._occupied != 0
        network.fail_router(1)
        assert_occupancy_masks_match(network)
        sim.run(until=1_000_000)
        assert network.router(1)._occupied == 0

    def test_mask_tracks_buffers_through_stall_discards(self):
        sim, _, network = build(3, 1, recovery_stall_discard=1_000.0,
                                recovery_buffer_capacity=2,
                                magic_inbox_capacity=2)
        sim.profiler = AfterEvent(
            lambda: assert_occupancy_masks_match(network))
        for _ in range(10):
            network.interface(0).send(
                Packet(src=0, dst=1, lane=Lane.RECOVERY_A, kind="rec",
                       source_route=[Mesh2D.EAST]))
        sim.run(until=10_000_000)
        assert network.router(1).stats.dropped_stall >= 1
        assert buffered_packets(network) == 0
