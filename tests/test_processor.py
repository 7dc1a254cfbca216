"""Processor model tests: op execution, bus errors, recovery parking,
speculation."""

from tests.helpers import RawMachine
from repro.common.errors import BusError
from repro.node.processor import (
    Compute,
    FlushLine,
    Load,
    Store,
    UncachedLoad,
    UncachedStore,
)


def remote_line(machine, home, index=0):
    start, _ = machine.address_map.usable_range(home)
    return start + index * machine.params.line_size


class TestExecution:
    def test_compute_advances_time_only(self):
        machine = RawMachine()
        t_seen = []

        def program():
            yield Compute(12_345)
            t_seen.append(machine.sim.now)

        machine.run_programs([(0, program())])
        assert t_seen == [12_345.0]

    def test_program_result_returned(self):
        machine = RawMachine()

        def program():
            yield Compute(1)
            return "final-result"

        proc = machine.node(0).processor.run_program(program())
        machine.run(until=10_000)
        assert proc.result == "final-result"
        assert machine.node(0).processor.program_result == "final-result"

    def test_stats_count_op_classes(self):
        machine = RawMachine()
        line = remote_line(machine, 1)

        def program():
            yield Load(line)
            yield Store(line, value="x")
            yield UncachedStore(
                machine.address_map.io_region_start(0), 1)

        machine.run_programs([(0, program())])
        stats = machine.node(0).processor.stats
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.uncached_ops == 1

    def test_uncaught_bus_error_halts_program(self):
        machine = RawMachine()
        after = []

        def program():
            yield Store(0x100, value="to-vectors")   # range check rejects
            after.append("unreachable")

        proc = machine.node(0).processor.run_program(program())
        machine.run(until=1_000_000)
        assert not proc.alive
        assert after == []
        assert isinstance(machine.node(0).processor.program_error, BusError)

    def test_caught_bus_error_continues(self):
        machine = RawMachine()
        seen = []

        def program():
            try:
                yield Store(0x100, value="bad")
            except BusError:
                seen.append("caught")
            value = yield Load(remote_line(machine, 1))
            seen.append(value)

        machine.run_programs([(0, program())])
        assert seen[0] == "caught"
        assert len(seen) == 2

    def test_store_default_values_are_unique(self):
        """A store without a value gets one unique in its machine, stamped
        when it executes; a second machine's values start over."""
        def written():
            machine = RawMachine()
            line = remote_line(machine, 1)
            values = []

            def program():
                for _ in range(2):
                    values.append((yield Store(line)))
                assert (yield Load(line)) == values[-1]

            machine.run_programs([(0, program())])
            return values

        first = written()
        assert first[0] != first[1]
        assert written() == first

    def test_flush_line_op(self):
        machine = RawMachine()
        line = remote_line(machine, 1)

        def program():
            yield Store(line, value="d")
            yield FlushLine(line)

        machine.run_programs([(0, program())])
        machine.run(until=machine.sim.now + 1_000_000)
        assert not machine.node(0).cache.contains(line)

    def test_run_program_rejects_concurrent_program(self):
        machine = RawMachine()

        def forever():
            while True:
                yield Compute(1_000)

        machine.node(0).processor.run_program(forever())
        machine.run(until=5_000)
        try:
            machine.node(0).processor.run_program(forever())
        except RuntimeError:
            pass
        else:
            raise AssertionError("expected RuntimeError")


class TestSpeculation:
    def test_speculation_disabled_by_default(self):
        machine = RawMachine()
        line = remote_line(machine, 1)

        def program():
            for _ in range(20):
                yield Load(line)

        machine.run_programs([(0, program())])
        assert machine.node(0).processor.stats.speculative_references == 0

    def test_speculation_issues_extra_references(self):
        machine = RawMachine()
        processor = machine.node(0).processor
        processor.speculation_rate = 1.0
        line = remote_line(machine, 1)

        def program():
            for index in range(5):
                yield Load(remote_line(machine, 1, index))

        machine.run_programs([(0, program())])
        assert processor.stats.speculative_references == 5


class TestUncachedExactlyOnce:
    def test_uncached_write_side_effect_once(self):
        machine = RawMachine()
        io_address = machine.address_map.io_region_start(0)

        def program():
            yield UncachedStore(io_address, 7)
            yield UncachedStore(io_address, 7)

        machine.run_programs([(0, program())])
        device = machine.node(0).io_device
        assert device.write_counts[0] == 2     # two distinct ops
        assert device.registers[0] == 14       # accumulated side effect

    def test_uncached_read_returns_register_value(self):
        machine = RawMachine()
        io_address = machine.address_map.io_region_start(0)
        machine.node(0).io_device.registers[0] = 99
        values = []

        def program():
            values.append((yield UncachedLoad(io_address)))

        machine.run_programs([(0, program())])
        assert values == [99]
