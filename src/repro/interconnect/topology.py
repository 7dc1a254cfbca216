"""Interconnect topologies: 2D mesh and fat hypercube.

The paper runs its experiments on a 2D mesh for simplicity and notes that
FLASH actually uses a hierarchical fat hypercube whose smaller diameter makes
the dissemination phase scale better (Figure 5.5).  Both are provided; the
recovery algorithm is topology-independent (it only sees routers, ports and
links), exactly as the paper claims of its algorithms.

Conventions: one router per node, ``router id == node id``.  Each router has
numbered ports; port numbering is topology-defined and also used by
source-routed packets.  The node itself attaches through the distinguished
``LOCAL_PORT`` (defined in :mod:`repro.interconnect.router`).
"""

from repro.common.errors import ConfigurationError


class Topology:
    """Abstract topology: a set of routers and their port-level wiring."""

    #: human-readable name used in configs and results
    name = "abstract"

    def __init__(self, num_nodes):
        if num_nodes < 1:
            raise ConfigurationError("need at least one node")
        self.num_nodes = num_nodes

    def neighbors(self, router_id):
        """Map of ``port -> (neighbor_router, neighbor_port)``."""
        raise NotImplementedError

    def routing_port(self, router_id, dst_node):
        """Deadlock-free baseline routing: next output port toward dst."""
        raise NotImplementedError

    # -- derived helpers ------------------------------------------------------

    def links(self):
        """All undirected links as (router_a, port_a, router_b, port_b)."""
        seen = set()
        result = []
        for rid in range(self.num_nodes):
            for port, (nbr, nbr_port) in sorted(self.neighbors(rid).items()):
                key = (min(rid, nbr), max(rid, nbr))
                if key in seen:
                    continue
                seen.add(key)
                result.append((rid, port, nbr, nbr_port))
        return result

    def baseline_table(self, router_id):
        """Full routing table ``dst_node -> port`` for one router."""
        table = {}
        for dst in range(self.num_nodes):
            if dst == router_id:
                continue
            table[dst] = self.routing_port(router_id, dst)
        return table


class Mesh2D(Topology):
    """W x H mesh with dimension-ordered (X then Y) routing.

    Ports: 0 = east (+x), 1 = west (-x), 2 = north (+y), 3 = south (-y).
    """

    name = "mesh"
    EAST, WEST, NORTH, SOUTH = 0, 1, 2, 3

    def __init__(self, width, height):
        super().__init__(width * height)
        self.width = width
        self.height = height

    @classmethod
    def for_nodes(cls, num_nodes):
        """Most-square mesh holding exactly ``num_nodes`` nodes."""
        best = None
        for width in range(1, num_nodes + 1):
            if num_nodes % width:
                continue
            height = num_nodes // width
            shape = (max(width, height), min(width, height))
            if best is None or shape < (max(best), min(best)):
                best = (width, height)
        return cls(*best)

    def coords(self, router_id):
        return router_id % self.width, router_id // self.width

    def router_at(self, x, y):
        return y * self.width + x

    def neighbors(self, router_id):
        x, y = self.coords(router_id)
        result = {}
        if x + 1 < self.width:
            result[self.EAST] = (self.router_at(x + 1, y), self.WEST)
        if x > 0:
            result[self.WEST] = (self.router_at(x - 1, y), self.EAST)
        if y + 1 < self.height:
            result[self.NORTH] = (self.router_at(x, y + 1), self.SOUTH)
        if y > 0:
            result[self.SOUTH] = (self.router_at(x, y - 1), self.NORTH)
        return result

    def routing_port(self, router_id, dst_node):
        x, y = self.coords(router_id)
        dx, dy = self.coords(dst_node)
        if dx > x:
            return self.EAST
        if dx < x:
            return self.WEST
        if dy > y:
            return self.NORTH
        if dy < y:
            return self.SOUTH
        raise ConfigurationError("routing to self")


class FatHypercube(Topology):
    """Binary hypercube with e-cube routing (port k flips bit k).

    FLASH's interconnect is a hierarchical fat hypercube; for the purposes of
    this reproduction what matters is its logarithmic diameter, which is what
    makes the dissemination phase scale better than on a mesh (Figure 5.5).
    """

    name = "hypercube"

    def __init__(self, dimension):
        super().__init__(1 << dimension)
        self.dimension = dimension

    @classmethod
    def for_nodes(cls, num_nodes):
        dimension = max(1, (num_nodes - 1).bit_length())
        if (1 << dimension) != num_nodes:
            raise ConfigurationError(
                "hypercube needs a power-of-two node count, got %d"
                % num_nodes)
        return cls(dimension)

    def neighbors(self, router_id):
        return {
            bit: (router_id ^ (1 << bit), bit)
            for bit in range(self.dimension)
        }

    def routing_port(self, router_id, dst_node):
        diff = router_id ^ dst_node
        if diff == 0:
            raise ConfigurationError("routing to self")
        return (diff & -diff).bit_length() - 1   # lowest set bit


def make_topology(kind, num_nodes):
    """Build a topology by name ('mesh' or 'hypercube')."""
    if kind == "mesh":
        return Mesh2D.for_nodes(num_nodes)
    if kind == "hypercube":
        return FatHypercube.for_nodes(num_nodes)
    raise ConfigurationError("unknown topology %r" % kind)
