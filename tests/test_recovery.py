"""Integration tests for the distributed recovery algorithm (paper §4)."""

import pytest

from repro import FlashMachine, MachineConfig, FaultSpec
from repro.common.errors import BusError
from repro.common.types import DirState
from repro.node.processor import Load, Store
from tests.helpers import buffered_packets


def small_config(num_nodes=4, **overrides):
    defaults = dict(num_nodes=num_nodes, mem_per_node=1 << 16,
                    l2_size=1 << 13, seed=11)
    defaults.update(overrides)
    return MachineConfig(**defaults)


def line_at(machine, home, index=0):
    return machine.line_homed_at(home, index)


def fill_some_state(machine, lines_per_node=8):
    """Give every node some shared and exclusive lines."""
    programs = []
    for node in machine.nodes:
        def program(node_id=node.node_id):
            for index in range(lines_per_node):
                target = (node_id + 1 + index) % machine.config.num_nodes
                line = line_at(machine, target, index)
                if index % 2 == 0:
                    yield Store(line, value=("fill", node_id, index))
                else:
                    yield Load(line)
        programs.append((node.node_id, program()))
    machine.run_programs(programs)
    machine.quiesce()


def trigger_and_recover(machine, fault, prober=0):
    machine.injector.inject(fault)
    victim = fault.target if isinstance(fault.target, int) else fault.target[1]
    proc = None
    if fault.fault_type.value != "false_alarm":
        prober_id = prober if prober != victim else (prober + 1)

        def probe():
            try:
                # Use a high line index so the fill phase cannot have left
                # this line in the prober's cache (a hit detects nothing).
                yield Load(line_at(machine, victim, 40))
            except BusError:
                pass

        proc = machine.nodes[prober_id].processor.run_program(probe())
    report = machine.run_until_recovered()
    if proc is not None and proc.alive:
        machine.run_until(lambda: not proc.alive, limit=10_000_000_000)
    return report


class TestNodeFailureRecovery:
    def test_recovery_completes(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.node_failure(3))
        assert report.complete_time is not None
        assert report.available_nodes == {0, 1, 2}

    def test_all_four_phases_ran(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.node_failure(3))
        for phase in ("P1", "P2", "P3", "P4"):
            assert phase in report.phase_ends, phase
        assert (report.phase_ends["P1"] <= report.phase_ends["P2"]
                <= report.phase_ends["P3"] <= report.phase_ends["P4"])

    def test_node_maps_updated_on_survivors(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        trigger_and_recover(machine, FaultSpec.node_failure(3))
        for node_id in (0, 1, 2):
            assert machine.nodes[node_id].magic.node_map == {0, 1, 2}

    def test_lines_homed_on_failed_node_inaccessible(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        trigger_and_recover(machine, FaultSpec.node_failure(3))
        errors = []

        def program():
            try:
                yield Load(line_at(machine, 3))
            except BusError as error:
                errors.append(error.kind.value)

        machine.nodes[0].processor.run_program(program())
        machine.run(until=machine.sim.now + 1_000_000)
        assert errors == ["inaccessible_node"]

    def test_lines_owned_by_failed_node_marked_incoherent(self):
        machine = FlashMachine(small_config()).start()
        # Node 3 fetches a node-1 line exclusive, then dies with it.
        def program():
            yield Store(line_at(machine, 1), value="doomed")

        machine.run_programs([(3, program())])
        machine.quiesce()
        trigger_and_recover(machine, FaultSpec.node_failure(3))
        entry = machine.nodes[1].directory.entry(line_at(machine, 1))
        assert entry.state == DirState.INCOHERENT
        errors = []

        def checker():
            try:
                yield Load(line_at(machine, 1))
            except BusError as error:
                errors.append(error.kind.value)

        machine.nodes[0].processor.run_program(checker())
        machine.run(until=machine.sim.now + 1_000_000)
        assert errors == ["incoherent_line"]

    def test_shared_lines_survive(self):
        machine = FlashMachine(small_config()).start()
        line = line_at(machine, 1)

        def writer():
            yield Store(line, value="keep-me")

        machine.run_programs([(0, writer())])
        machine.quiesce()
        trigger_and_recover(machine, FaultSpec.node_failure(3))
        values = []

        def reader():
            values.append((yield Load(line)))

        machine.nodes[2].processor.run_program(reader())
        machine.run(until=machine.sim.now + 2_000_000)
        assert values == ["keep-me"]

    def test_deadlocked_lock_released_by_recovery(self):
        """A line locked by a transaction whose participant died must be
        usable again after recovery (§3.2: deadlock resolution)."""
        machine = FlashMachine(small_config()).start()
        line = line_at(machine, 1)

        def owner_program():
            yield Store(line, value="owned-by-3")

        machine.run_programs([(3, owner_program())])
        machine.quiesce()
        machine.injector.inject(FaultSpec.node_failure(3))
        # Node 0's store needs node 3 (owner): home locks the line,
        # forwards, the forward dies with node 3, node 0 times out.
        results = []

        def stuck_writer():
            try:
                value = yield Store(line, value="from-0")
                results.append(("ok", value))
            except BusError as error:
                results.append(("bus_error", error.kind.value))

        machine.nodes[0].processor.run_program(stuck_writer())
        machine.run_until_recovered()
        machine.run(until=machine.sim.now + 5_000_000)
        assert len(results) == 1
        # The line's only copy died with node 3: the retried store must be
        # bus-errored as incoherent, never silently give stale data.
        assert results[0] == ("bus_error", "incoherent_line")


class TestOtherFaultTypes:
    def test_router_failure_strands_and_excludes_node(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.router_failure(2))
        assert 2 not in report.available_nodes
        assert report.available_nodes == {0, 1, 3}

    def test_link_failure_keeps_all_nodes(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.link_failure(0, 1))
        assert report.available_nodes == {0, 1, 2, 3}

    def test_link_failure_reroutes_traffic(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        trigger_and_recover(machine, FaultSpec.link_failure(0, 1))
        values = []

        def program():
            values.append((yield Load(line_at(machine, 1, 5))))

        machine.nodes[0].processor.run_program(program())
        machine.run(until=machine.sim.now + 2_000_000)
        assert len(values) == 1   # reachable around the dead link

    def test_wedged_node_excluded(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.infinite_loop(1))
        assert 1 not in report.available_nodes
        assert report.available_nodes == {0, 2, 3}

    def test_wedged_node_congestion_cleared(self):
        """After recovery, the backed-up traffic toward the wedged node is
        gone and the fabric carries traffic again (§3.1, §4.4)."""
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        trigger_and_recover(machine, FaultSpec.infinite_loop(1))
        machine.quiesce()
        assert buffered_packets(machine.network) == 0

    def test_false_alarm_no_data_loss(self):
        machine = FlashMachine(small_config()).start()
        line = line_at(machine, 2)

        def writer():
            yield Store(line, value="survives-false-alarm")

        machine.run_programs([(0, writer())])
        machine.quiesce()
        report = trigger_and_recover(machine, FaultSpec.false_alarm(1))
        assert report.available_nodes == {0, 1, 2, 3}
        assert report.marked_incoherent == 0
        values = []

        def reader():
            values.append((yield Load(line)))

        machine.nodes[3].processor.run_program(reader())
        machine.run(until=machine.sim.now + 2_000_000)
        assert values == ["survives-false-alarm"]

    def test_false_alarm_brief_interruption_only(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.false_alarm(0))
        # "The sole effect of a false alarm is a brief interruption" (§4.1).
        assert report.total_duration < 100_000_000   # well under 100 ms


class TestRecoveryMechanics:
    def test_recovery_spreads_by_ping_wave(self):
        machine = FlashMachine(small_config(num_nodes=9)).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.node_failure(8))
        # All 8 survivors ran dissemination rounds: they all recovered.
        assert set(report.agent_rounds) == set(range(8))

    def test_dissemination_round_counts_bounded(self):
        machine = FlashMachine(small_config(num_nodes=9)).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.node_failure(8))
        # 2h bound: h <= diameter of the surviving 3x3 mesh = 4.
        assert all(rounds <= 2 * 4 + 1
                   for rounds in report.agent_rounds.values())

    def test_processors_resume_and_reissue(self):
        machine = FlashMachine(small_config()).start()
        values = []

        def program():
            # This load will be interrupted by recovery and reissued.
            values.append((yield Load(line_at(machine, 1))))
            values.append((yield Load(line_at(machine, 2))))

        machine.nodes[0].processor.run_program(program())
        machine.run(until=50_000)   # let the first load complete
        machine.injector.inject(FaultSpec.false_alarm(2))
        machine.run_until_recovered()
        machine.run(until=machine.sim.now + 5_000_000)
        assert len(values) == 2
        assert machine.nodes[0].processor.stats.recoveries_survived >= 0

    def test_hypercube_topology_recovers(self):
        machine = FlashMachine(
            small_config(num_nodes=8, topology="hypercube")).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.node_failure(7))
        assert report.available_nodes == set(range(7))

    def test_two_node_machine_recovers(self):
        machine = FlashMachine(small_config(num_nodes=2)).start()
        fill_some_state(machine, lines_per_node=4)
        report = trigger_and_recover(machine, FaultSpec.node_failure(1))
        assert report.available_nodes == {0}

    def test_second_fault_during_recovery_restarts(self):
        machine = FlashMachine(small_config(num_nodes=9)).start()
        fill_some_state(machine)
        machine.injector.inject(FaultSpec.node_failure(8))

        def probe():
            try:
                yield Load(line_at(machine, 8))
            except BusError:
                pass

        machine.nodes[0].processor.run_program(probe())
        # Let recovery get under way, then kill a second node mid-recovery.
        machine.run_until(
            lambda: machine.recovery_manager.in_progress,
            limit=10_000_000_000)
        machine.sim.schedule(8_000_000, machine.injector.inject,
                             FaultSpec.node_failure(4))
        report = machine.run_until_recovered(limit=50_000_000_000)
        assert report.available_nodes == set(range(8)) - {4}
        assert report.restarts >= 1

    def test_multi_node_failure_unit_shuts_down_whole_unit(self):
        config = small_config(num_nodes=4,
                              failure_units=(frozenset({0, 1}),
                                             frozenset({2, 3})))
        machine = FlashMachine(config).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.node_failure(3),
                                     prober=0)
        # Node 2 is healthy but shares a failure unit with dead node 3.
        assert report.available_nodes == {0, 1}
        assert 2 in report.shutdown_nodes

    def test_recovery_report_wb_duration_recorded(self):
        machine = FlashMachine(small_config()).start()
        fill_some_state(machine)
        report = trigger_and_recover(machine, FaultSpec.node_failure(3))
        assert report.wb_duration > 0

    def test_marked_incoherent_counted_in_report(self):
        machine = FlashMachine(small_config()).start()

        def program():
            yield Store(line_at(machine, 1), value="will-die")

        machine.run_programs([(3, program())])
        machine.quiesce()
        report = trigger_and_recover(machine, FaultSpec.node_failure(3))
        assert report.marked_incoherent >= 1


class TestOrphanGrantContainment:
    def test_grant_cancelled_by_recovery_does_not_lose_line(self):
        """A data grant that lands after recovery NAK'd its request must be
        returned home, not stranded: otherwise a node's *own* lines could
        be marked incoherent by a fault in someone else's failure unit —
        violating the §3.3 intra-unit guarantee.

        Deterministic staging: the home has granted the line exclusive
        (memory marked invalid) but the grant reply is still in flight when
        recovery starts; it is delivered into the requester's drain-mode
        controller, which must send the data home as a writeback.
        """
        machine = FlashMachine(small_config()).start()
        line = line_at(machine, 0)   # node 0's own memory
        home_magic = machine.nodes[0].magic
        entry = home_magic.directory.entry(line)
        entry.state = DirState.EXCLUSIVE
        entry.owner = 0
        entry.memory_valid = False   # grant outstanding, cache not filled

        machine.injector.inject(FaultSpec.false_alarm(1))
        # The grant reply arrives while node 0 is already in recovery.
        from repro.coherence.messages import MessageKind, make_packet
        machine.sim.schedule(
            200_000.0, home_magic.ni.inbox.put,
            make_packet(machine.params, 0, 0, MessageKind.DATA_EXCL,
                        {"line": line, "value": "granted-copy"}))
        report = machine.run_until_recovered(limit=60_000_000_000)

        assert report.marked_incoherent == 0
        refreshed = home_magic.directory.entry(line)
        assert refreshed.state != DirState.INCOHERENT
        assert home_magic.memory.read_line(line) == "granted-copy"
        values = []

        def reader():
            values.append((yield Load(line)))

        machine.nodes[2].processor.run_program(reader())
        machine.run(until=machine.sim.now + 5_000_000)
        assert values == ["granted-copy"]
