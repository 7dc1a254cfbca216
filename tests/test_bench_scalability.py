"""Tests for the scalability benchmark harness (repro.telemetry.scalability).

The directed sub-linearity test is the paper's headline claim (§5.3) in
executable form: recovery latency must grow slower than machine size.
"""

import json

import pytest

from repro.core import experiment
from repro.faults.models import FaultType
from repro.interconnect.topology import make_topology
from repro.telemetry.scalability import (
    BENCH_L2_SIZE,
    BENCH_MEM_PER_NODE,
    DEFAULT_SIZES,
    default_fault,
    run_scalability_point,
    run_scalability_sweep,
    scalability_table,
    sublinear_check,
    sweep_ok,
    write_bench_json,
)


class TestDefaultFault:
    def test_node_fault_strikes_highest_id(self):
        topology = make_topology("mesh", 8)
        fault = default_fault("node_failure", 8, topology)
        assert fault.fault_type is FaultType.NODE_FAILURE
        assert fault.target == 7

    def test_link_fault_touches_victim(self):
        topology = make_topology("mesh", 8)
        fault = default_fault("link_failure", 8, topology)
        assert fault.fault_type is FaultType.LINK_FAILURE
        assert 7 in fault.target


class TestPinnedSimulatedOutcome:
    """Two small points pinned to the numbers the tree produced before the
    dissemination views became set snapshots, re-pinned (events, P4 and
    total only) when P3's tables moved to up*/down* over every surviving
    link, which shortens the P4 flush barrier, and re-pinned (events only)
    when MAGIC's dispatch became a scheduled callback, which drops the
    no-op wakes of its idle wait, and again (events only) when a freed
    router credit began to wake only a sender that waits for it and a
    busy port began to arm one timer.  A host-side optimisation
    must leave every one of them alone: simulated cost is charged through
    ``recovery_work`` and flit counts only, never through how long the
    Python takes.  Update the literals only for a change that is meant to
    alter the simulation, and say so in CHANGES.md."""

    PINNED = {
        (16, "node_failure", "mesh"): {
            "events_executed": 13129,
            "sim_ns": 25656760.0,
            "phase_durations_ms": {"P1": 8.96486, "P2": 17.53192,
                                   "P3": 2.7914, "P4": 0.27693,
                                   "WB": 0.0768},
            "total_ms": 24.54044,
            "marked_incoherent": 7,
            "agent_rounds": dict.fromkeys(range(15), 12),
        },
        (16, "link_failure", "hypercube"): {
            "events_executed": 12984,
            "sim_ns": 16657152.0,
            "phase_durations_ms": {"P1": 4.61472, "P2": 8.89712,
                                   "P3": 1.75455, "P4": 0.27644,
                                   "WB": 0.0768},
            "total_ms": 15.54235,
            "marked_incoherent": 0,
            "agent_rounds": dict.fromkeys(range(16), 8),
        },
    }

    @pytest.mark.parametrize("point", sorted(PINNED))
    def test_point_matches_pinned_literals(self, point, monkeypatch):
        machines = []

        class RecordingMachine(experiment.FlashMachine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machines.append(self)

        monkeypatch.setattr(experiment, "FlashMachine", RecordingMachine)
        result = run_scalability_point(*point, seed=0)
        assert result["completed"]
        report = machines[-1].recovery_manager.reports[-1]
        recovery = result["recovery"]
        assert {
            "events_executed": result["sim"]["events_executed"],
            "sim_ns": result["sim"]["sim_ns"],
            "phase_durations_ms": recovery["phase_durations_ms"],
            "total_ms": recovery["total_ms"],
            "marked_incoherent": recovery["marked_incoherent"],
            "agent_rounds": report.agent_rounds,
        } == self.PINNED[point]


@pytest.mark.parametrize("fault_class, topology", [
    ("node_failure", "mesh"), ("link_failure", "hypercube")])
def test_point_and_figure_harness_time_the_same_recovery(fault_class,
                                                         topology):
    """The bench point and the Figure 5.5-5.7 harness are one run
    (``start_recovery_run``): same machine, same fault, same four curves.
    The link class is the one whose private copy once drifted."""
    fault = default_fault(fault_class, 16, make_topology(topology, 16))
    report = experiment.run_recovery_scalability(
        16, topology=topology, mem_per_node=BENCH_MEM_PER_NODE,
        l2_size=BENCH_L2_SIZE, fault=fault)
    recovery = run_scalability_point(16, fault_class, topology)["recovery"]
    assert [recovery[key]
            for key in ("P1_ms", "P12_ms", "P123_ms", "total_ms")] == [
        round(latency / 1e6, 6) for latency in (
            report.phase_duration_from_trigger("P1"),
            report.phase_duration_from_trigger("P2"),
            report.phase_duration_from_trigger("P3"),
            report.total_duration)]
    assert recovery["restarts"] == report.restarts
    assert recovery["marked_incoherent"] == report.marked_incoherent


@pytest.fixture(scope="module")
def small_sweep():
    """A 4/8/16-node sweep — the CI smoke shape, shared across tests."""
    return run_scalability_sweep(sizes=(4, 8, 16))


class TestSweepPayload:
    def test_payload_structure(self, small_sweep):
        payload = small_sweep
        assert payload["version"] == 1
        assert payload["benchmark"] == "recovery-scalability"
        assert payload["sizes"] == [4, 8, 16]
        assert len(payload["results"]) == 3
        for result in payload["results"]:
            assert result["completed"]
            recovery = result["recovery"]
            assert recovery["total_ms"] > 0
            assert set(recovery["phase_durations_ms"]) >= {
                "P1", "P2", "P3", "P4"}
            # Cumulative latencies are ordered: P1 <= P1,2 <= P1,2,3 <= total
            assert (recovery["P1_ms"] <= recovery["P12_ms"]
                    <= recovery["P123_ms"] <= recovery["total_ms"])
        assert sweep_ok(payload)

    def test_payload_json_roundtrip(self, small_sweep, tmp_path):
        path = tmp_path / "BENCH_scalability.json"
        write_bench_json(small_sweep, path)
        loaded = json.loads(path.read_text())
        assert loaded["sizes"] == [4, 8, 16]
        assert len(loaded["results"]) == 3

    def test_table_renders_each_size(self, small_sweep):
        table = scalability_table(small_sweep)
        assert "node_failure" in table
        for size in (4, 8, 16):
            assert "\n%d" % size in table

    def test_recovery_latency_grows_sublinearly(self, small_sweep):
        """Directed test of the paper's scalability claim: 4x the nodes
        must cost less than 4x the recovery time."""
        verdict = small_sweep["sublinear"]["node_failure"]
        assert verdict["ok"], verdict
        assert verdict["latency_ratio"] < verdict["node_ratio"] == 4.0


class TestSublinearCheck:
    def test_needs_two_completed_points(self):
        assert not sublinear_check([])["ok"]
        assert not sublinear_check(
            [{"nodes": 4, "completed": True,
              "recovery": {"total_ms": 1.0}}])["ok"]

    def test_flags_superlinear_growth(self):
        results = [
            {"nodes": 4, "completed": True, "recovery": {"total_ms": 1.0}},
            {"nodes": 16, "completed": True, "recovery": {"total_ms": 8.0}},
        ]
        verdict = sublinear_check(results)
        assert not verdict["ok"]
        assert verdict["latency_ratio"] == 8.0
        assert verdict["node_ratio"] == 4.0

    def test_incomplete_points_excluded(self):
        results = [
            {"nodes": 4, "completed": True, "recovery": {"total_ms": 1.0}},
            {"nodes": 8, "completed": False},
            {"nodes": 16, "completed": True, "recovery": {"total_ms": 2.0}},
        ]
        verdict = sublinear_check(results)
        assert verdict["ok"] and verdict["nodes"] == [4, 16]

    def test_incomplete_point_fails_sweep_gate(self):
        payload = {"results": [{"completed": True}, {"completed": False}]}
        assert not sweep_ok(payload)
        assert not sweep_ok({"results": []})


class TestDefaults:
    def test_default_sizes_reach_128(self):
        assert DEFAULT_SIZES[0] == 4
        assert DEFAULT_SIZES[-1] == 128
        assert list(DEFAULT_SIZES) == sorted(DEFAULT_SIZES)
