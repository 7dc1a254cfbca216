"""End-to-end Hive + parallel-make experiment tests (paper Table 5.4)."""

import pytest

from repro.faults.models import FaultSpec
from repro.hive.endtoend import run_end_to_end_experiment
from repro.hive.os import HiveConfig, HiveOS


def config(seed, **overrides):
    defaults = dict(cells=8, mem_per_node=1 << 17, l2_size=1 << 13,
                    seed=seed)
    defaults.update(overrides)
    return HiveConfig(**defaults)


@pytest.mark.parametrize(
    "fault_factory, expected_survivor_compiles, events, now", [
        (lambda: FaultSpec.node_failure(3), 7, 44376, 83557116.0),
        (lambda: FaultSpec.router_failure(6), 7, 21942, 75031080.0),
        (lambda: FaultSpec.infinite_loop(2), 7, 91028, 131512456.0),
        (lambda: FaultSpec.link_failure(0, 1), 8, 25595, 83139190.0),
    ], ids=["node", "router", "loop", "link"])
def test_surviving_compiles_finish_correctly(monkeypatch, fault_factory,
                                             expected_survivor_compiles,
                                             events, now):
    """Each run is also pinned to its event count and end time.

    Only Hive runs wake several waiters of one ``Event`` at once (RPC
    replies, file-server locks), so this pin is what notices a wake-up
    order that depends on the process: waking ``set(waiters)`` instead
    of the subscription list moved the ``node`` and ``loop`` runs in 5 of
    5 processes (``node`` read 44 278 to 44 625 events), while every
    other tier-1 test passed.
    """
    started = []
    real_start = HiveOS.start

    def start(self):
        started.append(self)
        return real_start(self)

    monkeypatch.setattr(HiveOS, "start", start)
    result = run_end_to_end_experiment(
        fault_factory(), hive_config=config(seed=61))
    assert result.recovered and result.os_recovered
    assert result.compiles_expected == expected_survivor_compiles
    assert result.compiles_correct == expected_survivor_compiles
    assert not result.failed, result.failure_reason
    (hive,) = started
    assert (hive.sim.events_executed, hive.sim.now) == (events, now)


def test_file_server_failure_affects_every_compile():
    result = run_end_to_end_experiment(
        FaultSpec.node_failure(0), hive_config=config(seed=62))
    assert result.recovered
    assert result.compiles_expected == 0   # everyone depends on the server
    assert not result.failed


def test_late_injection_after_build_completes():
    result = run_end_to_end_experiment(
        FaultSpec.node_failure(5), hive_config=config(seed=63),
        inject_delay=60_000_000.0)
    assert result.recovered
    assert not result.failed


def test_early_injection_before_much_progress():
    result = run_end_to_end_experiment(
        FaultSpec.node_failure(5), hive_config=config(seed=64),
        inject_delay=100_000.0)
    assert result.recovered
    assert not result.failed, result.failure_reason


def test_bug_emulation_produces_paper_failure_mode():
    """With the Hive-bug emulation forced on, a client death that leaves
    incoherent shared-log lines crashes a surviving cell — the run counts
    as failed, like the paper's 99/1187."""
    result = run_end_to_end_experiment(
        FaultSpec.node_failure(3),
        hive_config=config(seed=65, os_incoherent_bug_rate=1.0))
    assert result.recovered
    assert result.failed
    assert ("crashed" in result.failure_reason
            or "state=" in result.failure_reason)


def test_no_bug_emulation_means_no_failures():
    for seed in (66, 67):
        result = run_end_to_end_experiment(
            FaultSpec.node_failure(4),
            hive_config=config(seed=seed, os_incoherent_bug_rate=0.0))
        assert not result.failed, result.failure_reason


def test_recovery_times_reported():
    result = run_end_to_end_experiment(
        FaultSpec.node_failure(2), hive_config=config(seed=68))
    assert result.hw_recovery_ns > 0
    assert result.os_recovery_ns > 0


def test_expected_dead_cells_for_multi_node_cells():
    hive_config = config(seed=69, cells=4, nodes_per_cell=2)
    hive = HiveOS(hive_config)
    fault = FaultSpec.node_failure(5)   # node 5 belongs to cell 2
    assert fault.destroys_node_state
    assert hive.cell_of_node(fault.target).cell_id == 2
    assert not FaultSpec.link_failure(0, 1).destroys_node_state


def test_multi_node_cells_end_to_end():
    """Cells spanning two nodes: killing one node takes the whole cell
    (its failure unit) but nothing else."""
    result = run_end_to_end_experiment(
        FaultSpec.node_failure(5),
        hive_config=config(seed=70, cells=4, nodes_per_cell=2))
    assert result.recovered
    assert result.compiles_expected == 3
    assert not result.failed, result.failure_reason

