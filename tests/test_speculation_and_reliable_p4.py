"""Tests for the two optional-feature extensions:

* the R10000 speculative-write model and the firewall's defense against it
  (paper §3.3);
* the reliable-interconnect P4 variant (paper §6.3).
"""

from repro import FlashMachine, MachineConfig, FaultSpec
from repro.common.errors import BusError
from repro.common.types import CacheState, DirState
from repro.node.processor import Compute, Load, SpeculativeStore, Store
from tests.helpers import cached_value


def small_config(**overrides):
    defaults = dict(num_nodes=4, mem_per_node=1 << 16, l2_size=1 << 13,
                    seed=19)
    defaults.update(overrides)
    return MachineConfig(**defaults)


class TestSpeculativeStores:
    def test_spec_store_fetches_exclusive_without_writing(self):
        machine = FlashMachine(small_config()).start()
        line = machine.line_homed_at(1)
        results = []

        def program():
            results.append((yield SpeculativeStore(line)))

        machine.run_programs([(0, program())])
        # Exclusive in the cache, but the value is still the memory copy.
        assert machine.nodes[0].cache.state_of(line) == CacheState.EXCLUSIVE
        assert cached_value(machine.nodes[0].cache, line) == ("init", line)
        entry = machine.nodes[1].directory.entry(line)
        assert entry.state == DirState.EXCLUSIVE and entry.owner == 0

    def test_spec_store_does_not_change_committed_value(self):
        machine = FlashMachine(small_config()).start()
        line = machine.line_homed_at(1)

        def program():
            yield SpeculativeStore(line)

        machine.run_programs([(0, program())])
        assert machine.oracle.committed_value(line) == ("init", line)

    def test_firewall_blocks_speculative_writes(self):
        """The §3.3 defense: a speculatively fetched line from a protected
        page is refused, so the victim's data cannot die with the
        speculating node."""
        machine = FlashMachine(small_config()).start()
        line = machine.line_homed_at(1)
        page = line - (line % machine.params.page_size)
        machine.nodes[1].magic.set_firewall(page, {1})
        errors = []

        def program():
            result = yield SpeculativeStore(line)
            errors.append(result)

        machine.run_programs([(0, program())])
        assert machine.nodes[0].cache.state_of(line) == CacheState.INVALID
        entry = machine.nodes[1].directory.peek(line)
        assert entry is None or entry.state == DirState.UNOWNED

    def test_speculation_can_destroy_unprotected_data(self):
        """Without the firewall, an incorrectly speculated write can pull
        arbitrary data exclusive into a node that then fails — destroying
        it (the multi-cell hazard of §3.3)."""
        machine = FlashMachine(small_config(firewall_enabled=False)).start()
        line = machine.line_homed_at(1)

        def victim_writer():
            yield Store(line, value="precious")

        machine.run_programs([(2, victim_writer())])
        machine.quiesce()

        def speculator():
            yield SpeculativeStore(line)
            yield Compute(1_000_000_000)   # hold the line

        machine.nodes[3].processor.run_program(speculator())
        machine.run(until=machine.sim.now + 1_000_000)
        assert machine.nodes[3].cache.state_of(line) == CacheState.EXCLUSIVE

        machine.injector.inject(FaultSpec.node_failure(3))
        errors = []

        def reader():
            try:
                yield Load(line)
            except BusError as error:
                errors.append(error.kind.value)

        machine.nodes[0].processor.run_program(reader())
        machine.run_until_recovered(limit=30_000_000_000)
        machine.run(until=machine.sim.now + 5_000_000)
        # The line's only valid copy died with the speculating node.
        assert errors and errors[-1] == "incoherent_line"


class TestReliableInterconnectP4:
    def run_recovery(self, reliable):
        machine = FlashMachine(small_config(
            reliable_interconnect_p4=reliable)).start()
        lines = {
            "survivor_dirty": machine.line_homed_at(1, 0),
            "dead_dirty": machine.line_homed_at(1, 1),
            "shared": machine.line_homed_at(1, 2),
        }

        def survivor():
            yield Store(lines["survivor_dirty"], value="mine")
            yield Load(lines["shared"])

        def doomed():
            yield Store(lines["dead_dirty"], value="doomed")
            yield Load(lines["shared"])

        machine.run_programs([(0, survivor()), (3, doomed())])
        machine.quiesce()
        machine.injector.inject(FaultSpec.node_failure(3))

        def prober():
            try:
                yield Load(machine.line_homed_at(3, 30))
            except BusError:
                pass

        proc = machine.nodes[2].processor.run_program(prober())
        report = machine.run_until_recovered(limit=30_000_000_000)
        machine.run_until(lambda: not proc.alive, limit=40_000_000_000)
        return machine, lines, report

    def test_scan_only_marks_dead_owned_lines(self):
        machine, lines, report = self.run_recovery(reliable=True)
        directory = machine.nodes[1].directory
        assert (directory.entry(lines["dead_dirty"]).state
                == DirState.INCOHERENT)

    def test_scan_only_keeps_survivor_dirty_lines_cached(self):
        machine, lines, report = self.run_recovery(reliable=True)
        # No flush: node 0 still holds its dirty line, directory agrees.
        assert (machine.nodes[0].cache.state_of(lines["survivor_dirty"])
                == CacheState.EXCLUSIVE)
        entry = machine.nodes[1].directory.entry(lines["survivor_dirty"])
        assert entry.state == DirState.EXCLUSIVE and entry.owner == 0

    def test_flush_variant_empties_caches(self):
        machine, lines, report = self.run_recovery(reliable=False)
        assert len(machine.nodes[0].cache) == 0

    def test_scan_only_data_still_readable(self):
        machine, lines, report = self.run_recovery(reliable=True)
        values = []

        def reader():
            values.append((yield Load(lines["survivor_dirty"])))

        machine.nodes[2].processor.run_program(reader())
        machine.run(until=machine.sim.now + 5_000_000)
        assert values == ["mine"]

    def test_scan_only_removes_dead_sharers(self):
        machine, lines, report = self.run_recovery(reliable=True)
        entry = machine.nodes[1].directory.entry(lines["shared"])
        assert 3 not in entry.sharers
