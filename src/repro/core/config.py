"""Machine configuration.

Defaults follow the paper's experimental setup (Table 5.1): 8 nodes, 200 MHz
processors, 100 MHz MAGIC, 1 MB L2, 1-16 MB of memory per node, 128-byte
lines, a 2D mesh.  Everything is overridable; the figure benches sweep node
count, L2 size and memory size.
"""

import dataclasses

from repro.common.errors import ConfigurationError
from repro.common.params import TimingParams


@dataclasses.dataclass
class MachineConfig:
    """Configuration for one simulated FLASH machine."""

    num_nodes: int = 8
    topology: str = "mesh"              # "mesh" or "hypercube"
    mem_per_node: int = 1 << 20         # bytes of main memory per node
    l2_size: int = 1 << 20              # bytes of second-level cache
    seed: int = 0
    params: TimingParams = dataclasses.field(default_factory=TimingParams)

    #: failure units (Hive cells' hardware); default: one unit per node
    failure_units: tuple = ()

    firewall_enabled: bool = True

    # recovery-algorithm options (ablations, §4.2/§4.3/§6.3)
    speculative_pings: bool = True
    bft_hints: bool = True
    #: model a machine with hardware end-to-end reliable coherence
    #: transport (§6.3, HAL): P4 skips the cache flush and only scans the
    #: directories.  Only meaningful when no coherence message can be lost
    #: before recovery (e.g. quiesced node-failure experiments).
    reliable_interconnect_p4: bool = False

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.l2_size % self.params.line_size:
            raise ConfigurationError("L2 size must be line-aligned")
        if self.mem_per_node % self.params.line_size:
            raise ConfigurationError("memory size must be line-aligned")

    @property
    def l2_lines(self):
        return self.l2_size // self.params.line_size

    def resolved_failure_units(self):
        if not self.failure_units:
            return [frozenset({n}) for n in range(self.num_nodes)]
        units = [frozenset(unit) for unit in self.failure_units]
        covered = set()
        for unit in units:
            if covered & unit:
                raise ConfigurationError("failure units overlap")
            covered |= unit
        missing = set(range(self.num_nodes)) - covered
        units.extend(frozenset({n}) for n in sorted(missing))
        return units
