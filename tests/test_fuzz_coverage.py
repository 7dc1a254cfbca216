"""Coverage extraction and the coverage map.

Feature extraction must be a pure read over signals the run already
emitted (live counters, the trace recorder, the forensic audit) — these
tests drive one real faulted run through the worker entry point and
check the families the fuzzer keys on actually appear.
"""

from repro.campaign.pool import _execute_schedule_run
from repro.campaign.schedule import FaultSchedule, TimedFault
from repro.faults.models import FaultSpec
from repro.fuzz.coverage import CoverageMap, bucket, feature_hash
from repro.telemetry.metrics import containment_times_ms


class TestBucket:
    def test_power_of_two_resolution(self):
        assert bucket(0) == 0
        assert bucket(1) == 1
        assert bucket(2) == bucket(3) == 2
        assert bucket(5) == 3
        # 40 and 50 episodes are the same coverage; 3 vs 4 are not.
        assert bucket(40) == bucket(50)
        assert bucket(3) != bucket(4)

    def test_negative_clamps_to_zero(self):
        assert bucket(-5) == 0


class TestFeatureHash:
    def test_stable_and_compact(self):
        assert feature_hash("out|PASS") == feature_hash("out|PASS")
        assert len(feature_hash("out|PASS")) == 16
        assert feature_hash("out|PASS") != feature_hash("out|FAIL")


class TestCoverageMap:
    def test_add_returns_only_new_features(self):
        coverage = CoverageMap()
        assert coverage.add(["b", "a"]) == ["a", "b"]
        assert coverage.add(["a", "c"]) == ["c"]
        assert coverage.add(["a", "b", "c"]) == []
        assert len(coverage) == 3
        assert coverage.hits == {"a": 3, "b": 2, "c": 2}

    def test_rarity_and_energy(self):
        coverage = CoverageMap()
        coverage.add(["common", "rare"])
        coverage.add(["common"])
        coverage.add(["common"])
        assert coverage.rarity("rare") == 1.0
        assert coverage.rarity("common") == 1.0 / 3.0
        assert coverage.rarity("never-seen") == 0.0
        # Energy rewards holding the rare feature.
        assert coverage.energy(["rare"]) > coverage.energy(["common"])
        assert coverage.energy([]) == 1.0

    def test_round_trips_through_dict(self):
        coverage = CoverageMap()
        coverage.add(["x", "y"])
        coverage.add(["y"])
        clone = CoverageMap.from_dict(coverage.to_dict())
        assert clone.hits == coverage.hits
        assert clone.add(["x"]) == []


class TestRunCoverage:
    """One real faulted run through the worker entry point."""

    @classmethod
    def setup_class(cls):
        schedule = FaultSchedule(
            entries=(TimedFault(FaultSpec.node_failure(1), time=1_000.0),),
            num_nodes=4, name="coverage-probe")
        cls.payload = _execute_schedule_run(
            schedule.to_dict(), seed=3, run_limit=60_000_000_000,
            mem_per_node=64 << 10, l2_size=8 << 10, coverage=True)

    def test_run_finished(self):
        assert self.payload["status"] in ("pass", "fail")
        cover = self.payload["coverage"]
        assert cover["features"] == sorted(set(cover["features"]))

    def test_families_from_every_signal_source(self):
        families = {feature.split("|", 1)[0]
                    for feature in self.payload["coverage"]["features"]}
        # Live protocol counters, phase edges, outcome + bucketed counts.
        assert "dk" in families
        assert "pe" in families
        assert "out" in families
        assert "ep" in families
        assert "bl" in families   # forensic blast-radius shape

    def test_containment_times_extracted(self):
        times = containment_times_ms(self.payload["metrics"])
        assert times, "node failure must open an episode"
        assert all(value > 0 for value in times)

    def test_no_injector_skips_for_clean_schedule(self):
        assert self.payload["coverage"]["skipped_injections"] == 0

    def test_extraction_is_deterministic(self):
        schedule = FaultSchedule(
            entries=(TimedFault(FaultSpec.node_failure(1), time=1_000.0),),
            num_nodes=4, name="coverage-probe")
        repeat = _execute_schedule_run(
            schedule.to_dict(), seed=3, run_limit=60_000_000_000,
            mem_per_node=64 << 10, l2_size=8 << 10, coverage=True)
        assert repeat["coverage"]["features"] \
            == self.payload["coverage"]["features"]
        assert containment_times_ms(repeat["metrics"]) \
            == containment_times_ms(self.payload["metrics"])
