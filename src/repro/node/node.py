"""A FLASH node: processor + L2 cache + MAGIC + memory slice + I/O."""

from repro.node.cache import Cache
from repro.node.magic import Magic
from repro.node.processor import Processor


class Node:
    """One node of the machine."""

    def __init__(self, sim, params, node_id, address_map, network,
                 l2_capacity_lines, hooks=None, firewall_enabled=True):
        self.sim = sim
        self.node_id = node_id
        self.cache = Cache(node_id, l2_capacity_lines)
        self.magic = Magic(sim, params, node_id, address_map, network,
                           hooks=hooks, firewall_enabled=firewall_enabled)
        self.processor = Processor(sim, params, node_id, self.magic,
                                   self.cache)
        self.failed = False

    def start(self):
        self.magic.start()

    def fail(self):
        """Hard node failure: everything on the node is lost (§3.1)."""
        self.failed = True
        self.processor.kill()
        self.magic.fail()

    def wedge(self):
        """MAGIC firmware infinite loop (§3.1): the node effectively fails
        but its inbound buffers keep back-pressuring the interconnect."""
        self.failed = True
        self.magic.wedge()

    @property
    def memory(self):
        return self.magic.memory

    @property
    def directory(self):
        return self.magic.directory

    @property
    def io_device(self):
        return self.magic.io_device

    def __repr__(self):
        return "<Node %d%s>" % (self.node_id,
                                " FAILED" if self.failed else "")
