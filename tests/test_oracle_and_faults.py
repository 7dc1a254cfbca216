"""Tests for the oracle bookkeeping and the fault injector."""

import random

import pytest

from repro import FlashMachine, MachineConfig
from repro.campaign.schedule import FaultSchedule, TimedFault
from repro.faults.models import FaultSpec, FaultType
from repro.faults.oracle import Oracle
from repro.interconnect.topology import Mesh2D
from repro.node.memory import initial_value
from repro.coherence.messages import MessageKind
from repro.node.processor import Load, Store


def machine_with_oracle(seed=3):
    config = MachineConfig(num_nodes=4, mem_per_node=1 << 16,
                           l2_size=1 << 13, seed=seed)
    machine = FlashMachine(config).start()
    return machine, machine.oracle


class TestOracleBookkeeping:
    def test_committed_defaults_to_initial(self):
        oracle = Oracle()
        assert oracle.committed_value(0x80) == initial_value(0x80)

    def test_store_updates_committed(self):
        machine, oracle = machine_with_oracle()
        line = machine.line_homed_at(1)

        def program():
            yield Store(line, value="v1")
            yield Store(line, value="v2")

        machine.run_programs([(0, program())])
        assert oracle.committed_value(line) == "v2"

    def test_put_tracking_balances(self):
        machine, oracle = machine_with_oracle()
        line = machine.line_homed_at(1)

        def program():
            yield Store(line, value="d")
            from repro.node.processor import FlushLine
            yield FlushLine(line)

        machine.run_programs([(0, program())])
        machine.quiesce()
        assert line not in oracle.outstanding_puts

    def test_snapshot_accumulates_across_calls(self):
        machine, oracle = machine_with_oracle()
        line = machine.line_homed_at(1)

        def program():
            yield Store(line, value="owned-by-3")

        machine.run_programs([(3, program())])
        machine.quiesce()
        oracle.snapshot_at_injection(machine, set())
        assert line not in oracle.may_be_incoherent
        oracle.snapshot_at_injection(machine, {3})
        assert line in oracle.may_be_incoherent   # union kept growing

    def test_snapshot_flags_locked_lines(self):
        machine, oracle = machine_with_oracle()
        line = machine.line_homed_at(1)
        from repro.coherence.messages import MessageKind
        machine.nodes[1].directory.entry(line).lock(MessageKind.GETX, 0)
        oracle.snapshot_at_injection(machine, set())
        assert line in oracle.may_be_incoherent

    def test_snapshot_flags_inaccessible_homes(self):
        machine, oracle = machine_with_oracle()
        line = machine.line_homed_at(2)
        machine.nodes[2].directory.entry(line)   # touch it
        oracle.snapshot_at_injection(machine, {2})
        assert line in oracle.inaccessible_homes

    def test_overmarked_lines_empty_when_consistent(self):
        oracle = Oracle()
        oracle.may_be_incoherent = {0x100, 0x200}
        oracle.marked_incoherent = {0x100}
        assert oracle.overmarked_lines() == set()

    def test_overmarked_lines_detects_excess(self):
        oracle = Oracle()
        oracle.may_be_incoherent = {0x100}
        oracle.marked_incoherent = {0x100, 0x300}
        assert oracle.overmarked_lines() == {0x300}


class TestFaultSpec:
    def test_factories(self):
        assert FaultSpec.node_failure(3).fault_type == FaultType.NODE_FAILURE
        assert FaultSpec.link_failure(0, 1).target == (0, 1)
        assert "router_failure" in str(FaultSpec.router_failure(2))

    def test_random_fault_draws_valid_targets(self):
        rng = random.Random(1)
        mesh = Mesh2D(3, 3)
        for _ in range(50):
            spec = FaultSpec.random(rng, mesh)
            if spec.is_link_fault:
                a, b = spec.target
                assert b in dict(
                    mesh.neighbors(a)[p] for p in mesh.neighbors(a)
                ) or any(n == b for _, (n, _) in mesh.neighbors(a).items())
            else:
                assert 0 <= spec.target < 9

    def test_random_fault_fixed_type(self):
        rng = random.Random(2)
        mesh = Mesh2D(2, 2)
        spec = FaultSpec.random(rng, mesh, FaultType.INFINITE_LOOP)
        assert spec.fault_type == FaultType.INFINITE_LOOP


class TestInjector:
    def test_node_failure_kills_node(self):
        machine, _ = machine_with_oracle()
        machine.injector.inject(FaultSpec.node_failure(2))
        assert machine.nodes[2].failed
        assert machine.nodes[2].magic.failed

    def test_router_failure_fails_router_and_links(self):
        machine, _ = machine_with_oracle()
        machine.injector.inject(FaultSpec.router_failure(1))
        assert machine.network.router(1).failed
        assert all(link.failed
                   for link in machine.network.router(1).links.values())

    def test_link_failure(self):
        machine, _ = machine_with_oracle()
        machine.injector.inject(FaultSpec.link_failure(0, 1))
        assert machine.network.link_between(0, 1).failed

    def test_infinite_loop_wedges_magic(self):
        machine, _ = machine_with_oracle()
        machine.injector.inject(FaultSpec.infinite_loop(3))
        assert machine.nodes[3].magic.wedged

    def test_infinite_loop_backs_up_the_fabric_until_a_timeout(self):
        """§3.1: a wedged MAGIC stops draining its inbox.  The inbox fills,
        back-pressure parks packets in the routers upstream, and a
        requester's memory-op timeout is what detects the fault."""
        machine, oracle = machine_with_oracle()
        params = machine.params
        machine.injector.inject(FaultSpec.infinite_loop(3))
        flood = machine.nodes[0].magic
        for index in range(40):
            flood.send_message(3, MessageKind.GET, {
                "line": machine.line_homed_at(3, index), "requester": 0})

        def reader():
            yield Load(machine.line_homed_at(3, 100))

        machine.nodes[1].processor.run_program(reader())
        machine.run(until=params.memory_op_timeout / 2)
        assert len(machine.network.interface(3).inbox) == (
            params.magic_inbox_capacity)
        # 2x2 mesh, X then Y: node 0's packets reach 3 through router 1.
        assert machine.network.router(1).buffered_packet_count() > 0
        assert oracle.recovery_triggers == []
        machine.sim.run_until(lambda: oracle.recovery_triggers,
                              limit=10 * params.memory_op_timeout)
        assert oracle.recovery_triggers[0] == (1, "memory_op_timeout")

    def test_false_alarm_triggers_recovery(self):
        machine, oracle = machine_with_oracle()
        machine.injector.inject(FaultSpec.false_alarm(1))
        assert machine.recovery_manager.in_progress
        assert oracle.recovery_triggers[0] == (1, "false_alarm")

    def test_injection_log_kept(self):
        machine, _ = machine_with_oracle()
        machine.injector.inject(FaultSpec.node_failure(1))
        machine.injector.inject(FaultSpec.link_failure(2, 3))
        assert len(machine.injector.injected) == 2

    def test_scheduled_injection(self):
        machine, _ = machine_with_oracle()
        machine.injector.inject_schedule(FaultSchedule(
            (TimedFault(FaultSpec.node_failure(3), time=5_000.0),),
            num_nodes=4))
        assert not machine.nodes[3].failed
        machine.run(until=10_000)
        assert machine.nodes[3].failed

    def test_unknown_fault_type_rejected(self):
        machine, _ = machine_with_oracle()

        class FakeSpec:
            fault_type = "bogus"
            target = 0

        with pytest.raises(ValueError):
            machine.injector.inject(FakeSpec())
