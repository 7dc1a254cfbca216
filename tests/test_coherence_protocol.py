"""Functional tests for the directory coherence protocol (no faults)."""

import pytest

from tests.helpers import RawMachine, cached_value
from repro.common.errors import BusError
from repro.common.types import BusErrorKind, CacheState, DirState
from repro.node.memory import initial_value
from repro.node.processor import (
    Compute,
    FlushLine,
    Load,
    Store,
    UncachedLoad,
    UncachedStore,
)


def remote_line(machine, home_node, index=0):
    """A line address homed at ``home_node``."""
    start, _ = machine.address_map.usable_range(home_node)
    return start + index * machine.params.line_size


def run_one(machine, node_id, ops):
    """Run a straight-line program of ops; return the list of results."""
    results = []

    def program():
        for op in ops:
            value = yield op
            results.append(value)

    machine.run_programs([(node_id, program())])
    return results


class TestReadPath:
    def test_local_read_returns_initial_value(self):
        machine = RawMachine()
        line = remote_line(machine, 0)
        results = run_one(machine, 0, [Load(line)])
        assert results == [("init", line)]

    def test_remote_read_returns_initial_value(self):
        machine = RawMachine()
        line = remote_line(machine, 3)
        results = run_one(machine, 0, [Load(line)])
        assert results == [("init", line)]

    def test_read_fills_cache_shared(self):
        machine = RawMachine()
        line = remote_line(machine, 2)
        run_one(machine, 0, [Load(line)])
        assert machine.node(0).cache.state_of(line) == CacheState.SHARED

    def test_second_read_hits_in_cache(self):
        machine = RawMachine()
        line = remote_line(machine, 2)
        run_one(machine, 0, [Load(line), Load(line)])
        assert machine.node(0).cache.hits == 1

    def test_directory_tracks_sharers(self):
        machine = RawMachine()
        line = remote_line(machine, 2)
        run_one(machine, 0, [Load(line)])
        run_one(machine, 1, [Load(line)])
        entry = machine.node(2).directory.entry(line)
        assert entry.state == DirState.SHARED
        assert entry.sharers == {0, 1}

    def test_remote_read_slower_than_local(self):
        machine_a = RawMachine()
        line_local = remote_line(machine_a, 0)
        t0 = machine_a.sim.now
        run_one(machine_a, 0, [Load(line_local)])
        local_time = machine_a.sim.now - t0

        machine_b = RawMachine()
        line_remote = remote_line(machine_b, 3)
        t0 = machine_b.sim.now
        run_one(machine_b, 0, [Load(line_remote)])
        remote_time = machine_b.sim.now - t0
        assert remote_time > local_time


class TestWritePath:
    def test_store_makes_line_exclusive(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Store(line, value="v1")])
        assert machine.node(0).cache.state_of(line) == CacheState.EXCLUSIVE
        entry = machine.node(1).directory.entry(line)
        assert entry.state == DirState.EXCLUSIVE
        assert entry.owner == 0
        assert not entry.memory_valid

    def test_store_then_load_same_node(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        results = run_one(machine, 0, [Store(line, value="v1"), Load(line)])
        assert results == ["v1", "v1"]

    def test_store_visible_to_other_node(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Store(line, value="v1")])
        results = run_one(machine, 2, [Load(line)])
        assert results == ["v1"]

    def test_read_of_dirty_line_downgrades_owner(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Store(line, value="v1")])
        run_one(machine, 2, [Load(line)])
        assert machine.node(0).cache.state_of(line) == CacheState.SHARED
        entry = machine.node(1).directory.entry(line)
        assert entry.state == DirState.SHARED
        assert entry.sharers == {0, 2}
        assert entry.memory_valid
        assert machine.node(1).memory.read_line(line) == "v1"

    def test_write_invalidates_sharers(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Load(line)])
        run_one(machine, 2, [Load(line)])
        run_one(machine, 3, [Store(line, value="v2")])
        assert machine.node(0).cache.state_of(line) == CacheState.INVALID
        assert machine.node(2).cache.state_of(line) == CacheState.INVALID
        entry = machine.node(1).directory.entry(line)
        assert entry.state == DirState.EXCLUSIVE and entry.owner == 3

    def test_write_steals_exclusive_from_owner(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Store(line, value="v1")])
        results = run_one(machine, 2, [Store(line, value="v2"), Load(line)])
        assert results == ["v2", "v2"]
        assert machine.node(0).cache.state_of(line) == CacheState.INVALID

    def test_successive_writers_chain(self):
        machine = RawMachine()
        line = remote_line(machine, 0)
        for writer, value in [(1, "a"), (2, "b"), (3, "c"), (1, "d")]:
            run_one(machine, writer, [Store(line, value=value)])
        results = run_one(machine, 2, [Load(line)])
        assert results == ["d"]

    def test_store_hit_on_exclusive_line_is_fast(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Store(line, value="v1")])
        misses_before = machine.node(0).cache.misses
        run_one(machine, 0, [Store(line, value="v2")])
        assert machine.node(0).cache.misses == misses_before

    def test_store_to_shared_line_upgrades(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Load(line), Store(line, value="v9")])
        entry = machine.node(1).directory.entry(line)
        assert entry.state == DirState.EXCLUSIVE and entry.owner == 0
        results = run_one(machine, 2, [Load(line)])
        assert results == ["v9"]


class TestEvictionsAndWritebacks:
    def test_dirty_eviction_writes_back(self):
        machine = RawMachine(l2_lines=2)
        lines = [remote_line(machine, 1, i) for i in range(3)]
        run_one(machine, 0, [Store(lines[0], value="dirty0"),
                             Store(lines[1], value="dirty1"),
                             Store(lines[2], value="dirty2")])
        machine.run(until=machine.sim.now + 1_000_000)
        # lines[0] was evicted (LRU) and must be home and valid again.
        entry = machine.node(1).directory.entry(lines[0])
        assert entry.state == DirState.UNOWNED
        assert entry.memory_valid
        assert machine.node(1).memory.read_line(lines[0]) == "dirty0"

    def test_clean_eviction_silent(self):
        machine = RawMachine(l2_lines=2)
        lines = [remote_line(machine, 1, i) for i in range(3)]
        run_one(machine, 0, [Load(lines[0]), Load(lines[1]),
                             Load(lines[2])])
        machine.run(until=machine.sim.now + 1_000_000)
        # Home still lists node 0 as a sharer of the evicted line: a later
        # writer invalidates it and node 0 acks blindly.
        run_one(machine, 2, [Store(lines[0], value="w")])
        entry = machine.node(1).directory.entry(lines[0])
        assert entry.state == DirState.EXCLUSIVE and entry.owner == 2

    def test_flush_line_writes_back_dirty(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        run_one(machine, 0, [Store(line, value="vf"), FlushLine(line)])
        machine.run(until=machine.sim.now + 1_000_000)
        entry = machine.node(1).directory.entry(line)
        assert entry.state == DirState.UNOWNED and entry.memory_valid
        assert machine.node(1).memory.read_line(line) == "vf"
        assert machine.node(0).cache.state_of(line) == CacheState.INVALID


class TestContention:
    def test_many_writers_same_line(self):
        machine = RawMachine()
        line = remote_line(machine, 0)
        programs = []
        for node_id in range(4):
            def program(node_id=node_id):
                for i in range(5):
                    yield Store(line, value=("n%d" % node_id, i))
                    yield Compute(50)
            programs.append((node_id, program()))
        machine.run_programs(programs)
        # The directory must end in a consistent single-owner state.
        entry = machine.node(0).directory.entry(line)
        assert entry.state == DirState.EXCLUSIVE
        owner_value = cached_value(machine.node(entry.owner).cache, line)
        assert owner_value is not None

    def test_readers_and_writer_interleaved(self):
        machine = RawMachine()
        line = remote_line(machine, 2)
        seen = []

        def writer():
            for i in range(4):
                yield Store(line, value=("w", i))
                yield Compute(200)

        def reader(node_id):
            for _ in range(6):
                value = yield Load(line)
                seen.append((node_id, value))
                yield Compute(150)

        machine.run_programs([(0, writer()), (1, reader(1)),
                              (3, reader(3))])
        assert len(seen) == 12
        # Every observed value is either the initial token or a writer value.
        for _, value in seen:
            assert value == ("init", line) or value[0] == "w"

    def test_no_deadlock_under_cross_traffic(self):
        machine = RawMachine()
        lines = [remote_line(machine, n) for n in range(4)]
        programs = []
        for node_id in range(4):
            def program(node_id=node_id):
                for i in range(8):
                    yield Store(lines[(node_id + i) % 4],
                                value=(node_id, i))
                    yield Load(lines[(node_id + i + 1) % 4])
            programs.append((node_id, program()))
        machine.run_programs(programs)   # must terminate


class TestUncachedOps:
    def test_local_io_read_write(self):
        machine = RawMachine()
        io_base = machine.address_map.io_region_start(0)
        results = run_one(machine, 0, [UncachedStore(io_base, 5),
                                       UncachedLoad(io_base)])
        assert results == [None, 5]
        assert machine.node(0).io_device.write_counts[0] == 1

    def test_remote_io_within_failure_unit(self):
        machine = RawMachine()
        for node in machine.nodes:
            node.magic.set_failure_unit({0, 1})
        io_base = machine.address_map.io_region_start(1)
        results = run_one(machine, 0, [UncachedStore(io_base, 3),
                                       UncachedLoad(io_base)])
        assert results == [None, 3]

    def test_remote_io_across_failure_unit_bus_errors(self):
        machine = RawMachine()   # default failure unit = self only
        io_base = machine.address_map.io_region_start(1)
        caught = []

        def program():
            try:
                yield UncachedLoad(io_base)
            except BusError as error:
                caught.append(error)

        machine.run_programs([(0, program())])
        assert len(caught) == 1
        assert caught[0].kind == BusErrorKind.REMOTE_UNCACHED_IO
        assert machine.node(1).io_device.total_operations() == 0

    def test_uncached_memory_read_remote(self):
        machine = RawMachine()
        for node in machine.nodes:
            node.magic.set_failure_unit({0, 1, 2, 3})
        line = remote_line(machine, 2)
        results = run_one(machine, 0, [UncachedLoad(line)])
        assert results == [("init", line)]


class TestContainmentChecks:
    def test_vector_range_reads_are_node_local(self):
        machine = RawMachine()
        results_0 = run_one(machine, 0, [Load(0x100)])
        results_3 = run_one(machine, 3, [Load(0x100)])
        assert results_0[0][1] == 0   # served by node 0's replica
        assert results_3[0][1] == 3   # served by node 3's replica

    def test_vector_range_write_rejected(self):
        machine = RawMachine()
        caught = []

        def program():
            try:
                yield Store(0x100, value="evil")
            except BusError as error:
                caught.append(error)

        machine.run_programs([(0, program())])
        assert caught and caught[0].kind == BusErrorKind.RANGE_CHECK

    def test_magic_region_local_write_rejected(self):
        machine = RawMachine()
        address = machine.address_map.magic_region_start(0)
        caught = []

        def program():
            try:
                yield Store(address, value="evil")
            except BusError as error:
                caught.append(error)

        machine.run_programs([(0, program())])
        assert caught and caught[0].kind == BusErrorKind.RANGE_CHECK

    def test_magic_region_remote_write_rejected(self):
        machine = RawMachine()
        address = machine.address_map.magic_region_start(2)
        caught = []

        def program():
            try:
                yield Store(address, value="evil")
            except BusError as error:
                caught.append(error)

        machine.run_programs([(0, program())])
        assert caught and caught[0].kind == BusErrorKind.RANGE_CHECK

    def test_magic_region_remote_read_allowed(self):
        machine = RawMachine()
        address = machine.address_map.magic_region_start(2)
        results = run_one(machine, 0, [Load(address)])
        assert results[0] is not None

    def test_firewall_blocks_unauthorized_writer(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        page = line - (line % machine.params.page_size)
        machine.node(1).magic.set_firewall(page, {1, 2})
        caught = []

        def program():
            try:
                yield Store(line, value="blocked")
            except BusError as error:
                caught.append(error)

        machine.run_programs([(0, program())])
        assert caught and caught[0].kind == BusErrorKind.FIREWALL
        assert machine.node(1).magic.stats.firewall_rejections == 1

    def test_firewall_allows_authorized_writer(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        page = line - (line % machine.params.page_size)
        machine.node(1).magic.set_firewall(page, {1, 2})
        results = run_one(machine, 2, [Store(line, value="allowed")])
        assert results == ["allowed"]

    def test_firewall_never_blocks_reads(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        page = line - (line % machine.params.page_size)
        machine.node(1).magic.set_firewall(page, {1})
        results = run_one(machine, 0, [Load(line)])
        assert results == [("init", line)]

    def test_firewall_disabled_allows_everything(self):
        machine = RawMachine(firewall_enabled=False)
        line = remote_line(machine, 1)
        page = line - (line % machine.params.page_size)
        machine.node(1).magic.set_firewall(page, {1})
        results = run_one(machine, 0, [Store(line, value="open")])
        assert results == ["open"]

    def test_node_map_blocks_requests_to_failed_home(self):
        machine = RawMachine()
        line = remote_line(machine, 3)
        machine.node(0).magic.update_node_map({0, 1, 2})
        caught = []

        def program():
            try:
                yield Load(line)
            except BusError as error:
                caught.append(error)

        machine.run_programs([(0, program())])
        assert caught and caught[0].kind == BusErrorKind.INACCESSIBLE_NODE


class TestIncoherentLines:
    def test_access_to_incoherent_line_bus_errors(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        entry = machine.node(1).directory.entry(line)
        entry.unlock(DirState.INCOHERENT)
        caught = []

        def program():
            try:
                yield Load(line)
            except BusError as error:
                caught.append(error)

        machine.run_programs([(0, program())])
        assert caught and caught[0].kind == BusErrorKind.INCOHERENT_LINE

    def test_scrub_resets_incoherent_lines(self):
        """§4.6: the OS scrubs a page at its home (Hive's file server homes
        its pages at its own lead node), and a remote reader then sees
        the page's initial contents again."""
        machine = RawMachine()
        line = remote_line(machine, 1)
        page = line - (line % machine.params.page_size)
        home = machine.node(1).magic
        home.directory.entry(line).unlock(DirState.INCOHERENT)
        home.memory.write_line(line, "lost")
        assert home.scrub_page(page) == 1
        assert home.directory.entry(line).state == DirState.UNOWNED
        assert home.memory.read_line(line) == initial_value(line)
        results = run_one(machine, 0, [Load(line)])
        assert results[0][0] == "init"   # fresh value after scrub
