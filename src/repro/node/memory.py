"""Per-node memory and the machine-wide address map.

FLASH distributes main memory across the nodes; each node is the *home* of a
contiguous range of physical addresses.  Two special regions matter for fault
containment:

* the **exception-vector range** (low physical addresses) is replicated on
  every node, and the node controllers remap references to it into
  node-local references (paper §3.2) — otherwise every processor in the
  machine would depend on node 0;
* the top of every node's memory is the **MAGIC-protected region** holding
  the node controller's code, data and protocol state; it is only writable
  by the local protocol processor, enforced by a range check (paper §3.3).

Line values are modeled as opaque tokens (ints) rather than bytes: what the
fault-containment machinery needs to get right is *which copy of a line is
current*, and token equality is exactly that check.
"""

from repro.common.errors import ConfigurationError
from repro.common.types import line_of


class AddressMap:
    """Maps physical addresses to (home node, region) for the whole machine."""

    def __init__(self, num_nodes, mem_per_node, line_size=128,
                 page_size=4096, vector_range_size=4096,
                 magic_region_size=8192, io_region_size=4096):
        if mem_per_node % line_size:
            raise ConfigurationError("memory size must be line-aligned")
        if magic_region_size + io_region_size + vector_range_size > mem_per_node:
            raise ConfigurationError("node memory too small for the"
                                     " reserved regions")
        self.num_nodes = num_nodes
        self.mem_per_node = mem_per_node
        self.line_size = line_size
        self.page_size = page_size
        self.vector_range_size = vector_range_size
        self.magic_region_size = magic_region_size
        self.io_region_size = io_region_size

    @property
    def total_memory(self):
        return self.num_nodes * self.mem_per_node

    def home_of(self, address):
        """Home node of a physical address."""
        if not 0 <= address < self.total_memory:
            raise ConfigurationError("address 0x%x out of range" % address)
        return address // self.mem_per_node

    def node_base(self, node_id):
        return node_id * self.mem_per_node

    def line_address(self, address):
        return line_of(address, self.line_size)

    def is_vector_range(self, address):
        """Addresses every processor must always be able to fetch (§3.2)."""
        return 0 <= address < self.vector_range_size

    def magic_region_start(self, node_id):
        """Protected region: top of the node's memory minus the I/O window."""
        return (self.node_base(node_id) + self.mem_per_node
                - self.io_region_size - self.magic_region_size)

    def is_magic_region(self, address):
        node_id = self.home_of(address)
        start = self.magic_region_start(node_id)
        return start <= address < start + self.magic_region_size

    def io_region_start(self, node_id):
        return self.node_base(node_id) + self.mem_per_node - self.io_region_size

    def is_io_region(self, address):
        node_id = self.home_of(address)
        return address >= self.io_region_start(node_id)

    def usable_range(self, node_id):
        """(start, end) of the node's general-purpose coherent memory."""
        start = self.node_base(node_id)
        if node_id == 0:
            # Node 0's copy of the vector range is the architectural one; it
            # stays out of the general allocation pool like everyone else's.
            start += self.vector_range_size
        end = self.magic_region_start(node_id)
        return start, end

    def usable_lines(self, node_id):
        start, end = self.usable_range(node_id)
        return range(start, end, self.line_size)


def initial_value(line_address):
    """Deterministic initial token for a line (pre-first-write contents)."""
    return ("init", line_address)


class NodeMemory:
    """The slice of main memory resident on one node."""

    def __init__(self, node_id, address_map):
        self.node_id = node_id
        self.address_map = address_map
        self._values = {}
        # The node-local replica of the exception vectors (§3.2).
        self._vector_values = {}

    def owns(self, address):
        return self.address_map.home_of(address) == self.node_id

    def read_line(self, line_address):
        if not self.owns(line_address):
            raise KeyError("line 0x%x not resident on node %d"
                           % (line_address, self.node_id))
        return self._values.get(line_address, initial_value(line_address))

    def write_line(self, line_address, value):
        if not self.owns(line_address):
            raise KeyError("line 0x%x not resident on node %d"
                           % (line_address, self.node_id))
        self._values[line_address] = value

    def read_vector(self, address):
        """Read from this node's replica of the exception-vector range."""
        line = self.address_map.line_address(address)
        return self._vector_values.get(line, ("vector", self.node_id, line))
