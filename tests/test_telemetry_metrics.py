"""Tests for the histogram and the per-run summary the campaign engine
records."""

import pytest

from repro.campaign.records import RunRecord, RunStatus
from repro.campaign.schedule import FaultSchedule, TimedFault
from repro.core.config import MachineConfig
from repro.core.experiment import run_schedule_experiment
from repro.faults.models import FaultSpec
from repro.telemetry.metrics import (
    Histogram,
    containment_times_ms,
    summarize_run,
)
from repro.telemetry.scalability import run_scalability_point


class TestInstruments:
    def test_histogram_stats(self):
        histogram = Histogram()
        for value in (1, 3, 100):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min == 1 and histogram.max == 100
        assert abs(histogram.mean - 104 / 3) < 1e-9

    def test_histogram_power_of_two_buckets(self):
        histogram = Histogram()
        histogram.observe(3)     # -> bucket 4
        histogram.observe(4)     # -> bucket 4
        histogram.observe(5)     # -> bucket 8
        assert histogram.buckets == {4: 2, 8: 1}
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["buckets"] == {4: 2, 8: 1}

    def test_percentile_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentile(50) is None
        assert histogram.percentiles() == {"p50": None, "p95": None,
                                           "p99": None}

    def test_percentile_walks_buckets(self):
        histogram = Histogram()
        for value in range(1, 101):          # buckets 1, 2, 4, ... 128
            histogram.observe(value)
        # p50 lands in the bucket holding rank 50 (bound 64); the top
        # percentiles land in the last bucket, clipped to the true max.
        assert histogram.percentile(50) == 64
        assert histogram.percentile(95) == 100
        assert histogram.percentile(99) == 100

    def test_percentile_single_observation(self):
        histogram = Histogram()
        histogram.observe(7)
        assert histogram.percentiles() == {"p50": 7, "p95": 7, "p99": 7}

    def test_snapshot_includes_percentiles(self):
        histogram = Histogram()
        histogram.observe(3)
        snapshot = histogram.snapshot()
        assert snapshot["p50"] == 3 and snapshot["p99"] == 3


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
