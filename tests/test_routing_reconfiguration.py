"""Post-recovery routing-table reconfiguration (paper §4.4, step 3).

After interconnect recovery every surviving router must hold a programmed
table that reaches every surviving destination without crossing a failed
link or a failed router — verified here by walking the actual tables hop
by hop, and end-to-end by issuing reads across the reconfigured fabric.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.experiment import inject_and_probe
from repro.core.machine import FlashMachine
from repro.faults.models import FaultSpec
from repro.interconnect.router import LOCAL_PORT


def recover_from(fault, num_nodes=8, seed=0):
    config = MachineConfig(num_nodes=num_nodes, mem_per_node=64 << 10,
                           l2_size=8 << 10, seed=seed)
    machine = FlashMachine(config).start()
    machine.quiesce()
    inject_and_probe(machine, fault)
    report = machine.run_until_recovered()
    return machine, report


def walk_table_path(machine, src, dst, forbidden_links=()):
    """Follow the programmed tables from router ``src`` to ``dst``.

    Returns the router path; fails the test on a dead end, a loop, a hop
    over a forbidden/failed link, or a hop through a failed router.
    """
    forbidden = {frozenset(pair) for pair in forbidden_links}
    path = [src]
    current = src
    for _ in range(machine.config.num_nodes + 1):
        if current == dst:
            return path   # arrival: delivery is local, not a table lookup
        router = machine.network.router(current)
        assert not router.failed, "path transits failed router %d" % current
        port = router.table.get(dst)
        assert port is not None, (
            "router %d has no route to %d (table %r)"
            % (current, dst, router.table))
        assert port != LOCAL_PORT
        neighbor, _ = machine.topology.neighbors(current)[port]
        key = frozenset((current, neighbor))
        assert key not in forbidden, (
            "route %d->%d crosses failed link %s" % (src, dst, sorted(key)))
        link = machine.network.link_between(current, neighbor)
        assert link is not None and not link.failed
        path.append(neighbor)
        current = neighbor
    pytest.fail("routing loop: %s -> %d via %s" % (src, dst, path))


class TestLinkFailureReroute:
    @pytest.fixture(scope="class")
    def recovered(self):
        # 8-node mesh (4x2): losing link 6-7 leaves node 7 reachable the
        # long way around through 3.
        machine, report = recover_from(FaultSpec.link_failure(6, 7))
        assert report.complete_time is not None
        return machine, report

    def test_no_node_lost(self, recovered):
        _, report = recovered
        assert sorted(report.available_nodes) == list(range(8))

    def test_tables_route_around_the_failed_link(self, recovered):
        machine, report = recovered
        survivors = sorted(report.available_nodes)
        for src in survivors:
            for dst in survivors:
                path = walk_table_path(machine, src, dst,
                                       forbidden_links=[(6, 7)])
                assert path[-1] == dst

    def test_reads_cross_the_reconfigured_fabric(self, recovered):
        machine, _ = recovered
        # 6 -> 7 used the failed link before recovery; the read must now
        # take the detour and still complete without a bus error.
        from repro.node.processor import UncachedLoad

        results = []

        def program():
            value = yield UncachedLoad(machine.line_homed_at(7))
            results.append(value)

        # The detection prober ran on node 6; wait for its post-recovery
        # reissued read to finish before claiming the processor.
        machine.run_until(lambda: not machine.nodes[6].processor.busy,
                          limit=machine.sim.now + 1_000_000_000)
        machine.nodes[6].processor.run_program(program())
        machine.run_until(lambda: len(results) == 1,
                          limit=machine.sim.now + 1_000_000_000)


class TestOrphanRouterReprogramming:
    @pytest.fixture(scope="class")
    def recovered(self):
        machine, report = recover_from(FaultSpec.node_failure(5))
        assert report.complete_time is not None
        return machine, report

    def test_dead_controllers_local_port_discards(self, recovered):
        machine, _ = recovered
        # §4.4 step 1: the designated node programs the orphan router to
        # discard traffic bound for its dead controller.
        assert LOCAL_PORT in machine.network.router(5).discard_ports

    def test_orphan_router_still_forwards_transit_traffic(self, recovered):
        machine, report = recovered
        survivors = sorted(report.available_nodes)
        assert 5 not in survivors
        orphan_table = machine.network.router(5).table
        assert orphan_table, "orphan router was never reprogrammed"
        for src in survivors:
            for dst in survivors:
                walk_table_path(machine, src, dst)

    def test_no_surviving_route_targets_the_dead_node(self, recovered):
        machine, report = recovered
        for rid in sorted(report.available_nodes):
            table = machine.network.router(rid).table
            assert 5 not in table


class TestRouterFailureIsolation:
    def test_survivors_route_around_failed_router(self):
        machine, report = recover_from(FaultSpec.router_failure(7))
        survivors = sorted(report.available_nodes)
        # The stranded node shuts down (failure-unit rule); everyone else
        # must still reach everyone else without transiting router 7.
        assert 7 not in survivors
        assert len(survivors) >= 6
        for src in survivors:
            for dst in survivors:
                path = walk_table_path(machine, src, dst)
                assert 7 not in path
