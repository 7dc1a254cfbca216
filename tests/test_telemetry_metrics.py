"""Tests for the containment percentiles and the per-run summary the
campaign engine records."""

import pytest

from repro.campaign.records import RunRecord, RunStatus
from repro.campaign.schedule import FaultSchedule, TimedFault
from repro.core.config import MachineConfig
from repro.core.experiment import run_schedule_experiment
from repro.faults.models import FaultSpec
from repro.telemetry.metrics import (
    containment_times_ms,
    percentile,
    summarize_run,
)
from repro.telemetry.scalability import run_scalability_point


class TestInstruments:
    def test_percentile_empty(self):
        assert percentile([], 50) is None

    def test_percentile_single_observation(self):
        assert [percentile([7], q) for q in (50, 95, 99)] == [7, 7, 7]

    def test_percentile_is_an_observed_value_not_a_bucket_bound(self):
        # A power-of-two histogram reported 4, its bucket bound: none
        # of the values.
        values = [3, 5, 6]
        assert percentile(values, 50) == 5
        assert all(percentile(values, q) in values for q in (50, 95, 99))

    def test_percentile_is_the_nearest_rank_observation(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        # Eight values: p99 and p95 are the largest, p50 the fourth.
        durations = [3, 5, 8, 13, 21, 34, 55, 89]
        assert percentile(durations, 50) == 13
        assert percentile(durations, 95) == 89
        assert percentile(durations, 99) == 89


class TestHarvestAndSummary:
    def test_summarize_run_shape(self, recovered_point):
        summary = summarize_run(recovered_point)
        assert summary["packets"]["forwarded"] > 0
        assert summary["packets"]["delivered"] > 0
        assert summary["detectors"]["timeouts"] >= 1
        assert summary["recovery"]["episodes"] == 1
        assert summary["recovery"]["total_ms"] > 0
        assert set(summary["recovery"]["phase_ms"]) >= {
            "P1", "P2", "P3", "P4"}
        assert summary["sim_events"] > 0

    def test_summary_reports_recovery_timeline(self, recovered_point):
        summary = summarize_run(recovered_point)
        recovery = summary["recovery"]
        assert "total_ms_percentiles" not in recovery
        assert "availability" not in summary
        (episode,) = recovery["timeline"]
        assert set(episode) == {"trigger_ms", "total_ms", "shutdown_nodes",
                                "restarts"}
        # One episode: its total is the run's, and no restart means the
        # completing pass is the whole episode.
        assert episode["total_ms"] == recovery["total_ms"]
        assert episode["restarts"] == []
        # Node 3 died; recovery shut nothing down, it left 3 out.
        assert episode["shutdown_nodes"] == []
        assert recovery["available_nodes"] == 3
        assert containment_times_ms(summary) == [recovery["total_ms"]]

    def test_summary_is_json_friendly(self, recovered_point):
        import json
        json.dumps(summarize_run(recovered_point))


@pytest.fixture(scope="module")
def recovered_point():
    """One recovered 4-node machine, shared across harvesting tests."""
    from repro.core.experiment import inject_and_probe
    from repro.core.machine import FlashMachine
    config = MachineConfig(num_nodes=4, mem_per_node=64 << 10,
                           l2_size=8 << 10, seed=0)
    machine = FlashMachine(config).start()
    machine.quiesce()
    inject_and_probe(machine, FaultSpec.node_failure(3))
    machine.run_until_recovered()
    return machine


class TestCampaignMetrics:
    def test_schedule_experiment_collects_metrics(self):
        schedule = FaultSchedule(
            entries=(TimedFault(FaultSpec.node_failure(3), time=100_000.0),),
            num_nodes=4)
        config = MachineConfig(num_nodes=4, mem_per_node=64 << 10,
                               l2_size=8 << 10, seed=0)
        result = run_schedule_experiment(schedule, config=config,
                                         collect_metrics=True)
        assert result.metrics is not None
        assert result.metrics["recovery"]["episodes"] == result.episodes
        # Off by default: the plain path stays metrics-free.
        plain = run_schedule_experiment(schedule, config=config)
        assert plain.metrics is None

    def test_run_record_metrics_roundtrip(self):
        record = RunRecord(
            run_index=1, seed=2, status=RunStatus.PASS,
            schedule={"entries": []},
            metrics={"recovery": {"episodes": 1}})
        decoded = RunRecord.from_dict(record.to_dict())
        assert decoded.metrics == {"recovery": {"episodes": 1}}

    def test_run_record_metrics_default_empty(self):
        decoded = RunRecord.from_dict({
            "run_index": 0, "seed": 0, "status": "pass", "schedule": {}})
        assert decoded.metrics == {}


class TestScalabilityPointMetrics:
    def test_point_reports_throughput(self):
        result = run_scalability_point(4)
        assert result["completed"]
        assert result["sim"]["events_executed"] > 0
        assert result["sim"]["events_per_sec"] > 0
        assert result["recovery"]["total_ms"] > 0
