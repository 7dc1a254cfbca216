"""Tests for MAGIC's fault-containment features and failure detectors."""

import pytest

from tests.helpers import RawMachine
from repro.common.errors import BusError
from repro.common.types import DirState
from repro.node.processor import Load, Store, UncachedLoad
from repro.telemetry.trace import TraceRecorder


def remote_line(machine, home_node, index=0):
    start, _ = machine.address_map.usable_range(home_node)
    return start + index * machine.params.line_size


def traced(machine):
    """Attach one recorder to every router, interface and controller."""
    recorder = TraceRecorder(machine.sim)
    for router in machine.network.routers:
        router.trace = recorder
    for node in machine.nodes:
        node.magic.trace = node.magic.ni.trace = recorder
    return recorder


def injected(machine, recorder, packet, node_id):
    """Put ``packet`` straight into ``node_id``'s inbox, its causal chain
    rooted at a fresh event so a detector's ``cause=`` edge is checkable."""
    packet.cause_eid = recorder.emit("test", "origin")
    machine.node(node_id).magic.ni.inbox.put(packet)
    return packet.cause_eid


class TestFailureDetectors:
    def test_memory_op_timeout_triggers_recovery(self):
        triggers = []
        machine = RawMachine(memory_op_timeout=50_000.0)
        machine.node(0).magic.recovery_trigger = (
            lambda node, reason: triggers.append((node, reason)))
        machine.node(3).fail()

        def program():
            try:
                yield Load(remote_line(machine, 3))
            except BusError:
                pass

        machine.node(0).processor.run_program(program())
        machine.run(until=1_000_000)
        assert ("memory_op_timeout" in [r for _, r in triggers])
        assert machine.node(0).magic.stats.timeouts >= 1

    def test_nak_counter_overflow_triggers_recovery(self):
        triggers = []
        machine = RawMachine(nak_counter_limit=10,
                             nak_retry_interval=100.0)
        machine.node(0).magic.recovery_trigger = (
            lambda node, reason: triggers.append(reason))
        # Lock a line at its home permanently (simulates a lost unlock).
        line = remote_line(machine, 1)
        entry = machine.node(1).directory.entry(line)
        from repro.coherence.messages import MessageKind
        entry.lock(MessageKind.GETX, 2)

        def program():
            yield Load(line)

        recorder = traced(machine)
        machine.node(0).processor.run_program(program())
        machine.run(until=5_000_000)
        assert "nak_overflow" in triggers
        assert machine.node(0).magic.stats.nak_overflows >= 1
        # The overflow descends from the NAK whose handling tripped it:
        # the last NAK node 0 received before the detection.
        detect = recorder.events_of("detect", "nak_overflow")[0]
        nak_recvs = [event.eid for event in recorder.events_of("pkt", "recv")
                     if event.node == 0 and event.eid < detect.eid
                     and event.data["kind"] == str(MessageKind.NAK)]
        assert detect.cause == nak_recvs[-1]

    def test_truncated_packet_triggers_recovery(self):
        triggers = []
        machine = RawMachine()
        magic = machine.node(1).magic
        magic.recovery_trigger = (
            lambda node, reason: triggers.append(reason))
        from repro.coherence.messages import MessageKind, make_packet
        packet = make_packet(machine.params, 0, 1, MessageKind.PUT,
                             {"line": remote_line(machine, 1),
                              "value": "x"})
        packet.truncate()
        recorder = traced(machine)
        cause = injected(machine, recorder, packet, 1)
        machine.run(until=100_000)
        assert "truncated_packet" in triggers
        assert magic.stats.truncated_received == 1
        (detect,) = recorder.events_of("detect", "truncated")
        assert detect.cause == cause

    def test_stray_message_descends_from_its_packet(self):
        # A writeback from a node that never owned the line is a stray at
        # the home; its trace event hangs off the packet that caused it.
        machine = RawMachine()
        from repro.coherence.messages import MessageKind, make_packet
        packet = make_packet(machine.params, 0, 1, MessageKind.PUT,
                             {"line": remote_line(machine, 1),
                              "value": "x"})
        recorder = traced(machine)
        cause = injected(machine, recorder, packet, 1)
        machine.run(until=100_000)
        (stray,) = recorder.events_of("protocol", "stray")
        assert stray.data["reason"] == "put-without-ownership"
        assert stray.cause == cause

    def test_firmware_assertion_triggers_recovery(self):
        triggers = []
        machine = RawMachine()
        magic = machine.node(1).magic
        magic.recovery_trigger = (
            lambda node, reason: triggers.append(reason))
        # A GET for a line not homed here violates a protocol invariant.
        from repro.coherence.messages import MessageKind, make_packet
        magic.ni.inbox.put(make_packet(
            machine.params, 0, 1, MessageKind.GET,
            {"line": remote_line(machine, 2), "requester": 0}))
        machine.run(until=100_000)
        assert any(r.startswith("assertion") for r in triggers)

    def test_detection_suppressed_during_recovery(self):
        triggers = []
        machine = RawMachine()
        magic = machine.node(0).magic
        magic.recovery_trigger = (
            lambda node, reason: triggers.append(reason))
        magic.enter_recovery()
        magic.trigger_recovery("anything")
        assert triggers == []


class TestDrainMode:
    def test_drained_requests_generate_no_replies(self):
        machine = RawMachine()
        magic = machine.node(1).magic
        magic.set_drain_mode(True)
        from repro.coherence.messages import MessageKind, make_packet
        line = remote_line(machine, 1)
        magic.ni.inbox.put(make_packet(
            machine.params, 0, 1, MessageKind.GET,
            {"line": line, "requester": 0}))
        machine.run(until=500_000)
        assert magic.stats.drained_messages == 1
        # Directory untouched: no transaction started.
        assert magic.directory.peek(line) is None

    def test_drained_writeback_still_preserves_data(self):
        machine = RawMachine()
        magic = machine.node(1).magic
        line = remote_line(machine, 1)
        entry = magic.directory.entry(line)
        entry.state = DirState.EXCLUSIVE
        entry.owner = 0
        entry.memory_valid = False
        magic.set_drain_mode(True)
        from repro.coherence.messages import MessageKind, make_packet
        magic.ni.inbox.put(make_packet(
            machine.params, 0, 1, MessageKind.PUT,
            {"line": line, "value": "precious"}))
        machine.run(until=500_000)
        assert entry.memory_valid
        assert magic.memory.read_line(line) == "precious"

    def test_drain_updates_delivery_timestamp(self):
        machine = RawMachine()
        magic = machine.node(1).magic
        magic.set_drain_mode(True)
        before = magic.last_normal_delivery
        from repro.coherence.messages import MessageKind, make_packet
        machine.sim.schedule(10_000, magic.ni.inbox.put, make_packet(
            machine.params, 0, 1, MessageKind.GET,
            {"line": remote_line(machine, 1), "requester": 0}))
        machine.run(until=500_000)
        assert magic.last_normal_delivery > before


class TestRecoveryServices:
    def test_flush_caches_home_sends_dirty_lines(self):
        machine = RawMachine()
        line = remote_line(machine, 1)
        results = []

        def program():
            results.append((yield Store(line, value="dirty")))

        machine.node(0).processor.run_program(program())
        machine.run(until=1_000_000)
        capacity, writebacks = machine.node(0).magic.flush_caches_home()
        assert writebacks == 1
        machine.run(until=2_000_000)
        entry = machine.node(1).directory.entry(line)
        assert entry.memory_valid
        assert machine.node(1).memory.read_line(line) == "dirty"

    def test_scan_marks_lost_exclusive_lines(self):
        machine = RawMachine()
        magic = machine.node(1).magic
        line = remote_line(machine, 1)
        entry = magic.directory.entry(line)
        entry.state = DirState.EXCLUSIVE
        entry.owner = 3
        entry.memory_valid = False
        scanned, marked = magic.scan_and_reset_directory()
        assert marked == 1
        assert entry.state == DirState.INCOHERENT
        assert scanned == magic.directory.total_lines

    def test_scan_resets_shared_lines_to_unowned(self):
        machine = RawMachine()
        magic = machine.node(1).magic
        line = remote_line(machine, 1)
        entry = magic.directory.entry(line)
        entry.state = DirState.SHARED
        entry.sharers = {0, 2}
        _, marked = magic.scan_and_reset_directory()
        assert marked == 0
        assert entry.state == DirState.UNOWNED
        assert entry.sharers == set()

    def test_scan_resets_locked_lines_with_valid_memory(self):
        machine = RawMachine()
        magic = machine.node(1).magic
        line = remote_line(machine, 1)
        entry = magic.directory.entry(line)
        from repro.coherence.messages import MessageKind
        entry.lock(MessageKind.GET, 2)   # memory still valid
        _, marked = magic.scan_and_reset_directory()
        assert marked == 0
        assert entry.state == DirState.UNOWNED

    def test_scrub_page_resets_incoherent_lines(self):
        machine = RawMachine()
        magic = machine.node(1).magic
        line = remote_line(machine, 1)
        page = line - (line % machine.params.page_size)
        magic.directory.entry(line).unlock(DirState.INCOHERENT)
        assert magic.scrub_page(page) == 1
        assert magic.directory.entry(line).state == DirState.UNOWNED

    def test_enter_recovery_clears_outstanding(self):
        machine = RawMachine()
        magic = machine.node(0).magic
        machine.node(3).fail()

        def program():
            yield Load(remote_line(machine, 3))

        machine.node(0).processor.run_program(program())
        machine.run(until=20_000)
        assert magic.outstanding
        magic.enter_recovery()
        assert not magic.outstanding
        assert magic.in_recovery

    def test_pi_requests_requeued_during_recovery(self):
        machine = RawMachine()
        magic = machine.node(0).magic
        magic.enter_recovery()
        results = []
        event = magic.pi_request(Load(remote_line(machine, 1)))
        event.subscribe(results.append)
        machine.run(until=100_000)
        assert results == [("requeue", None)]


class TestSavedUncachedBuffer:
    def test_uncached_reply_captured_during_drain(self):
        machine = RawMachine()
        for node in machine.nodes:
            node.magic.set_failure_unit({0, 1, 2, 3})
        magic = machine.node(0).magic
        io_address = machine.address_map.io_region_start(1)
        machine.node(1).io_device.registers[0] = 42

        event = magic.pi_request(UncachedLoad(io_address))
        # Let the request go out, then drop into recovery before the
        # reply lands.
        machine.run(until=200)
        magic.enter_recovery()
        magic.set_drain_mode(True)
        machine.run(until=1_000_000)
        op = magic.pending_uc["op"] if magic.pending_uc else None
        assert magic.pending_uc is not None
        assert magic.pending_uc["arrived"]
        consumed, value = magic.consume_saved_uncached(op)
        assert consumed and value == 42
        # Exactly-once: the device serviced a single read.
        assert machine.node(1).io_device.read_counts[0] == 1


def stray_put(machine, node_id):
    """A writeback to ``node_id`` from a node that never owned the line."""
    from repro.coherence.messages import MessageKind, make_packet
    return make_packet(machine.params, 0, node_id, MessageKind.PUT,
                       {"line": remote_line(machine, node_id),
                        "value": "x"})


class TestIdleWait:
    def test_same_instant_puts_wake_once_packet_first(self):
        machine = RawMachine()
        machine.run(until=1_000)
        magic = machine.node(1).magic
        handled = []
        handle_network, handle_pi = magic._handle_network, magic._handle_pi
        magic._handle_network = (
            lambda packet: handled.append("ni") or handle_network(packet))
        magic._handle_pi = (
            lambda request: handled.append("pi") or handle_pi(request))
        pending = machine.sim.pending_events
        magic.pi_request(Load(remote_line(machine, 1)))
        magic.ni.inbox.put(stray_put(machine, 1))
        assert machine.sim.pending_events == pending + 1
        machine.run(until=100_000)
        assert handled[:2] == ["ni", "pi"]

    @pytest.mark.parametrize("stop", ["fail", "wedge"])
    def test_put_after_stop_schedules_nothing(self, stop):
        machine = RawMachine()
        machine.run(until=1_000)
        magic = machine.node(1).magic
        pending = machine.sim.pending_events
        magic.ni.inbox.put(stray_put(machine, 1))
        assert machine.sim.pending_events == pending + 1
        getattr(magic, stop)()
        assert machine.sim.pending_events == pending
        magic.ni.inbox.put(stray_put(machine, 1))
        magic.pi_request(Load(remote_line(machine, 1)))
        assert machine.sim.pending_events == pending

    def test_recovery_leaves_no_dead_watches(self):
        """MAGIC's idle wait holds no channel watch, so a 32-node
        recovery, which puts nothing on the PI queue, leaves no dead
        watch behind."""
        from repro.core.config import MachineConfig
        from repro.core.experiment import start_recovery_run
        from repro.interconnect.topology import make_topology
        from repro.sim.process import Event
        from repro.telemetry.scalability import default_fault

        config = MachineConfig(num_nodes=32, topology="mesh",
                               mem_per_node=64 << 10, l2_size=8 << 10,
                               seed=0)
        fault = default_fault("node_failure", 32, make_topology("mesh", 32))
        machine, _, _ = start_recovery_run(config, fault, 0.25,
                                           200_000_000_000)
        report = machine.run_until_recovered(limit=200_000_000_000)
        assert "P4" in report.phase_ends
        for node in machine.nodes:
            magic = node.magic
            for channel in (magic.ni.inbox, magic.pi_queue,
                            magic.recovery_inbox, magic.os_inbox):
                unfired = [watcher for watcher in channel._watchers
                           if isinstance(watcher, Event)
                           and not watcher.triggered]
                assert len(unfired) <= 1, channel
