"""Shared helpers for the test suite."""

from repro.common.params import TimingParams
from repro.interconnect.network import Network
from repro.interconnect.topology import make_topology
from repro.node.memory import AddressMap
from repro.node.node import Node
from repro.sim import Simulator


def cached_value(cache, line_address):
    """The value ``cache`` holds for a line, or None; counts no hit and
    leaves the LRU order alone."""
    line = cache._lines.get(line_address)
    return line.value if line else None


def buffered_packets(network):
    """Packets held in the input buffers of every router of ``network``."""
    return sum(router.buffered_packet_count() for router in network.routers)


class RawMachine:
    """A bare machine (no recovery manager, no OS) for protocol-level tests."""

    def __init__(self, num_nodes=4, mem_per_node=1 << 20,
                 l2_lines=256, topology="mesh", seed=7, hooks=None,
                 firewall_enabled=True, **param_overrides):
        self.params = TimingParams(**param_overrides)
        self.sim = Simulator(seed=seed)
        self.topology = make_topology(topology, num_nodes)
        self.network = Network(self.sim, self.params, self.topology)
        self.address_map = AddressMap(
            num_nodes, mem_per_node,
            line_size=self.params.line_size,
            page_size=self.params.page_size)
        self.nodes = [
            Node(self.sim, self.params, nid, self.address_map, self.network,
                 l2_capacity_lines=l2_lines, hooks=hooks,
                 firewall_enabled=firewall_enabled)
            for nid in range(num_nodes)
        ]
        self.network.start()
        for node in self.nodes:
            node.start()

    def node(self, node_id):
        return self.nodes[node_id]

    def run(self, until=None):
        return self.sim.run(until=until)

    def run_programs(self, programs, limit=500_000_000):
        """Run one program per (node, program) pair to completion."""
        procs = []
        for node_id, program in programs:
            procs.append(self.nodes[node_id].processor.run_program(program))
        self.sim.run_until(
            lambda: all(not p.alive for p in procs), limit=limit)
        return procs
