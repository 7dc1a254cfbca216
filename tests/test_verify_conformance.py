"""Live-engine conformance for the protocol model checker.

The checker runs the handlers the simulator runs, so conformance is
exact: the ``ProtocolEngine.covered`` pairs a deterministic
seed-0 battery exercises, for the kinds the explorer explores, must be
the ``(directory state, kind)`` pairs the explorer delivered — no pair
only one side reaches, no allowlist.  The uncached kinds stay outside
the stateful exploration; the checker delivers each once.

The battery is one 4-node machine driven through the full protocol
walk: fill, share, upgrade, migrate, writeback, uncached ops, request
races against a locked directory entry, the writeback-vs-forward race,
and a node death that leaves dirty lines incoherent.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import FlashMachine
from repro.faults.models import FaultSpec
from repro.node.processor import (FlushLine, Load, Store, UncachedLoad,
                                  UncachedStore)
from repro.telemetry.trace import Telemetry
from repro.verify import check_protocol
from repro.verify.checker import DIRECT_KINDS


def _prog(*ops):
    def gen():
        for op in ops:
            yield op
    return gen()


class Battery:
    def __init__(self):
        # a recorder switches on the engines' ``covered`` sets
        self.machine = FlashMachine(MachineConfig(num_nodes=4, seed=0),
                                    telemetry=Telemetry())
        self.machine.start()

    def covered(self):
        return set().union(*(node.magic.protocol.covered
                             for node in self.machine.nodes))

    def run(self, node, *ops):
        self.machine.run_programs([(node, _prog(*ops))])
        self.machine.quiesce(10_000.0)

    def race(self, *node_ops):
        self.machine.run_programs(
            [(node, _prog(*ops)) for node, ops in node_ops])
        self.machine.quiesce(10_000.0)


def _drive(b):
    machine = b.machine
    line = machine.line_homed_at(0, 0)
    contended = machine.line_homed_at(0, 1)
    remote_line = machine.line_homed_at(3, 0)

    # Main-line walk over every reachable quiescent directory state.
    b.run(1, Store(line, value=1))            # UNOWNED.GETX
    b.run(2, Load(line))                      # EXCLUSIVE.GET, FWD_GET,
                                              #   LOCKED.SHARING_WB
    b.run(3, Load(line))                      # SHARED.GET
    b.run(1, UncachedLoad(line))              # SHARED.UC_READ
    b.run(1, UncachedStore(line, 2))          # SHARED.UC_WRITE
    b.run(1, Store(line, value=3))            # SHARED.GETX, INVAL,
                                              #   LOCKED.INVAL_ACK
    b.run(1, UncachedStore(line, 4))          # EXCLUSIVE.UC_WRITE
    b.run(2, UncachedLoad(line))              # EXCLUSIVE.UC_READ
    b.run(2, Store(line, value=5))            # EXCLUSIVE.GETX, FWD_GETX,
                                              #   LOCKED.OWNERSHIP_XFER
    b.run(2, FlushLine(line))                 # EXCLUSIVE.PUT
    b.run(1, UncachedLoad(line))              # UNOWNED.UC_READ
    b.run(1, UncachedStore(line, 6))          # UNOWNED.UC_WRITE
    b.run(1, Load(line))                      # UNOWNED.GET

    # Requests racing against a locked entry (owner 2, forward round
    # trip to the old owner keeps home LOCKED while they arrive).
    b.run(2, Store(contended, value=1))
    b.race((1, [Store(contended, value=2)]),
           (3, [Store(contended, value=3)]))  # LOCKED.GETX (busy NAK)
    b.run(2, Store(contended, value=4))
    b.race((1, [Store(contended, value=5)]),
           (3, [Load(contended)]))            # LOCKED.GET (busy NAK)

    # The writeback-vs-forward race: the owner's eviction crosses the
    # directory's forwarded intervention.  The home must absorb the PUT
    # under the lock (LOCKED.PUT) and complete from memory when the
    # FWD_MISS echo proves the forward drained (LOCKED.FWD_MISS).
    b.run(2, Store(contended, value=6))
    b.race((1, [Store(contended, value=7)]),
           (2, [FlushLine(contended)]))       # LOCKED.PUT, LOCKED.FWD_MISS

    # A node dies holding the page-base line dirty: recovery marks it
    # INCOHERENT and every access class bounces off the tombstone.
    b.run(3, Store(line, value=9))
    machine.injector.inject(FaultSpec.node_failure(3))
    # An access to the dead home detects the failure and triggers the
    # recovery episode that tombstones the dirty line.
    machine.nodes[1].processor.run_program(_prog(Load(remote_line)))
    machine.run_until_recovered()
    machine.quiesce(10_000.0)
    b.run(1, Load(line))                      # INCOHERENT.GET
    b.run(1, Store(line, value=10))           # INCOHERENT.GETX
    b.run(1, UncachedLoad(line))              # INCOHERENT.UC_READ
    b.run(1, UncachedStore(line, 11))         # INCOHERENT.UC_WRITE
    return b


@pytest.fixture(scope="module")
def battery():
    return _drive(Battery())


@pytest.fixture(scope="module")
def report():
    return check_protocol()


def _explored(pairs):
    return {pair for pair in pairs if pair[1] not in DIRECT_KINDS}


class TestLiveConformance:
    def test_every_live_pair_is_admissible_in_the_model(self, battery,
                                                        report):
        """Conformance direction: every explored-kind pair the engine
        dispatches is one the explorer delivered — a live pair outside
        the explored space means the small model misses a situation the
        machine reaches."""
        extra = _explored(battery.covered()) - report.pairs
        assert extra == set(), (
            "live engine exercised pairs the explorer never delivered: "
            "%s" % sorted(extra))

    def test_seed0_battery_exercises_every_mainline_pair(self, battery,
                                                         report):
        """Liveness direction: every pair the explorer delivered is
        exercised by the seed-0 battery, so the two sides are equal."""
        unexercised = report.pairs - _explored(battery.covered())
        assert unexercised == set(), (
            "explored pairs the battery never drives: %s"
            % sorted(unexercised))
        assert len(report.pairs) == 19

    def test_uncached_and_scrub_pairs_are_checked_by_execution(
            self, battery, report):
        """The battery's remaining pairs are the uncached kinds in each
        quiescent directory state; the checker delivers each of those
        kinds once instead of exploring them.  Page scrub is a local MAGIC
        call at the page's home, not a message, so it has no pair here."""
        direct = battery.covered() - _explored(battery.covered())
        assert {kind for _state, kind in direct} == set(DIRECT_KINDS)
        assert len(direct) == 8
        assert report.direct_violations == []


class TestWritebackRaceRegression:
    """The model checker found the writeback-vs-forward ownership race;
    these assertions pin the fixed live behavior on the same schedule."""

    def test_machine_is_coherent_after_the_race(self, battery):
        machine = battery.machine
        contended = machine.line_homed_at(0, 1)
        directory = machine.nodes[0].magic.directory
        entry = directory.peek(contended)
        assert entry is not None
        assert entry.state.name != "LOCKED", (
            "directory wedged LOCKED after the writeback race")
        holders = [node.node_id for node in machine.nodes
                   if not node.failed and node.cache is not None
                   and node.cache.state_of(contended) is not None
                   and node.cache.state_of(contended).name == "EXCLUSIVE"]
        assert len(holders) <= 1, (
            "multiple exclusive holders after the race: %s" % holders)

    def test_winning_store_is_readable(self, battery):
        machine = battery.machine
        contended = machine.line_homed_at(0, 1)
        observations = []

        def reader():
            value = yield Load(contended)
            observations.append(value)

        machine.run_programs([(1, reader())])
        machine.quiesce(10_000.0)
        assert observations and observations[0] is not None
