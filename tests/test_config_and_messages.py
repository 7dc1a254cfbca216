"""Tests for machine configuration, message construction, and directories."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import TimingParams
from repro.common.types import DirState, Lane
from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import (
    MessageKind,
    flits_for,
    lane_for,
    make_packet,
)
from repro.core.config import MachineConfig
from repro.interconnect.network import Network
from repro.interconnect.packet import Packet
from repro.interconnect.topology import Mesh2D
from repro.sim import Simulator


class TestMachineConfig:
    def test_defaults_match_paper_table_5_1(self):
        config = MachineConfig()
        assert config.num_nodes == 8
        assert config.params.line_size == 128
        assert config.l2_size == 1 << 20

    def test_l2_lines(self):
        config = MachineConfig(l2_size=1 << 20)
        assert config.l2_lines == 8192

    def test_invalid_node_count(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_nodes=0)

    def test_unaligned_l2_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(l2_size=1000)

    def test_default_failure_units_one_per_node(self):
        units = MachineConfig(num_nodes=3).resolved_failure_units()
        assert units == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_partial_failure_units_completed(self):
        config = MachineConfig(num_nodes=4,
                               failure_units=(frozenset({0, 1}),))
        units = config.resolved_failure_units()
        assert frozenset({0, 1}) in units
        assert frozenset({2}) in units and frozenset({3}) in units

    def test_overlapping_units_rejected(self):
        config = MachineConfig(
            num_nodes=4,
            failure_units=(frozenset({0, 1}), frozenset({1, 2})))
        with pytest.raises(ConfigurationError):
            config.resolved_failure_units()


class TestTimingParams:
    def test_recovery_mips_under_2_5(self):
        params = TimingParams()
        mips = 1_000.0 / params.uncached_instruction_time
        assert mips <= 2.6   # paper: under 2.5 MIPS

    def test_recovery_work(self):
        params = TimingParams()
        assert params.recovery_work(1000) == 1000 * 390.0

    def test_data_packet_flits(self):
        params = TimingParams()
        assert params.data_packet_flits() == 1 + 128 // 16

    def test_transfer_time_monotone_in_flits(self):
        """A one-hop delivery takes longer for a longer packet."""
        arrival = {}
        for flits in (2, 9):
            sim = Simulator(seed=1)
            network = Network(sim, TimingParams(), Mesh2D(2, 1))
            network.start()
            network.interface(0).send(Packet(
                src=0, dst=1, lane=Lane.REQUEST, kind="x", flits=flits))
            inbox = network.interface(1).inbox
            sim.run_until(lambda: len(inbox), limit=1_000_000)
            arrival[flits] = sim.now
        assert arrival[9] > arrival[2]


class TestMessages:
    def test_requests_ride_request_lane(self):
        assert lane_for(MessageKind.GET) == Lane.REQUEST
        assert lane_for(MessageKind.GETX) == Lane.REQUEST
        assert lane_for(MessageKind.PUT) == Lane.REQUEST
        assert lane_for(MessageKind.INVAL) == Lane.REQUEST
        # §4.5: the flush barrier trails the sender's PUTs on their lane.
        assert lane_for(MessageKind.FLUSH_DONE) is Lane.REQUEST

    def test_replies_ride_reply_lane(self):
        assert lane_for(MessageKind.DATA_SHARED) == Lane.REPLY
        assert lane_for(MessageKind.NAK) == Lane.REPLY
        assert lane_for(MessageKind.BUS_ERROR_REPLY) == Lane.REPLY

    def test_data_messages_are_long(self):
        params = TimingParams()
        assert flits_for(MessageKind.PUT, params) == params.data_packet_flits()
        assert flits_for(MessageKind.NAK, params) == 2

    def test_make_packet_defaults(self):
        params = TimingParams()
        packet = make_packet(params, 0, 1, MessageKind.GET,
                             {"line": 0x100})
        assert packet.lane == Lane.REQUEST
        assert packet.payload["line"] == 0x100

    def test_make_packet_lane_override(self):
        params = TimingParams()
        packet = make_packet(params, 0, 1, MessageKind.PING, {},
                             lane=Lane.RECOVERY_B, source_route=[2, 0])
        assert packet.lane == Lane.RECOVERY_B
        assert packet.source_route == [2, 0]


class TestDirectory:
    def make(self):
        return Directory(node_id=1, base_address=0x10000,
                         size_bytes=0x10000, line_size=128)

    def test_owns_range(self):
        directory = self.make()
        assert directory.owns(0x10000)
        assert directory.owns(0x1FF80)
        assert not directory.owns(0x20000)
        assert not directory.owns(0xFF80)

    def test_entry_lazily_created(self):
        directory = self.make()
        assert directory.peek(0x10000) is None
        entry = directory.entry(0x10000)
        assert entry.state == DirState.UNOWNED
        assert directory.peek(0x10000) is entry

    def test_foreign_line_rejected(self):
        with pytest.raises(KeyError):
            self.make().entry(0x100)

    def test_total_lines(self):
        assert self.make().total_lines == 0x10000 // 128

    def test_lock_unlock_cycle(self):
        entry = DirectoryEntry()
        entry.lock(MessageKind.GETX, 5)
        assert entry.state == DirState.LOCKED
        assert entry.pending_requester == 5
        entry.unlock(DirState.EXCLUSIVE)
        assert entry.state == DirState.EXCLUSIVE
        assert entry.pending_kind is None
