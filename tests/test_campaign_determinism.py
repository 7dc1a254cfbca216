"""Determinism guarantees of the campaign engine.

The campaign's whole resume/replay/shrink story rests on two properties:
per-run seeds are a pure function of (campaign seed, run index), and a
(schedule, seed) pair replays the exact same simulation — same verdict,
same recovery structure, same virtual time, event for event.
"""

import hashlib
import json
import random

import pytest

from repro.campaign.runner import CampaignRunner, derive_run_seed
from repro.campaign.schedule import FaultSchedule, TimedFault, make_schedule
from repro.core.config import MachineConfig
from repro.core.experiment import run_schedule_experiment
from repro.faults.models import FaultSpec, FaultType
from repro.interconnect.topology import make_topology


class TestDeriveRunSeed:
    def test_golden_values_are_machine_independent(self):
        """BLAKE2b-derived, so these values must never change — recorded
        campaigns reference runs by them."""
        assert derive_run_seed(0, 0) == 7689419447139100721
        assert derive_run_seed(0, 1) == 8724540124617128742
        assert derive_run_seed(7, 3) == 6148384659390418248

    def test_distinct_runs_get_distinct_seeds(self):
        seeds = {derive_run_seed(0, index) for index in range(100)}
        assert len(seeds) == 100

    def test_fits_in_63_bits(self):
        for index in range(50):
            assert 0 <= derive_run_seed(3, index) < 2 ** 63


class TestFaultSpecRandom:
    def test_same_rng_seed_same_draws(self):
        topology = make_topology("mesh", 8)
        draws_a = [FaultSpec.random(random.Random(11), topology)
                   for _ in range(10)]
        draws_b = [FaultSpec.random(random.Random(11), topology)
                   for _ in range(10)]
        # Same first draw repeated (fresh rng each time) ...
        assert all(d.to_dict() == draws_a[0].to_dict() for d in draws_b)
        # ... and one continuous rng replays a whole sequence.
        rng_a, rng_b = random.Random(13), random.Random(13)
        seq_a = [FaultSpec.random(rng_a, topology) for _ in range(10)]
        seq_b = [FaultSpec.random(rng_b, topology) for _ in range(10)]
        assert [s.to_dict() for s in seq_a] == [s.to_dict() for s in seq_b]

    def test_exclude_is_honored_for_nodes(self):
        topology = make_topology("mesh", 4)
        rng = random.Random(0)
        exclude = {0, 1, 2}
        for _ in range(20):
            spec = FaultSpec.random(rng, topology,
                                    fault_type=FaultType.NODE_FAILURE,
                                    exclude=exclude)
            assert spec.target == 3

    def test_exclude_is_honored_for_links(self):
        topology = make_topology("mesh", 4)
        rng = random.Random(0)
        exclude = {frozenset(pair) for pair in [(0, 1), (0, 2), (1, 3)]}
        for _ in range(20):
            spec = FaultSpec.random(rng, topology,
                                    fault_type=FaultType.LINK_FAILURE,
                                    exclude=exclude)
            assert frozenset(spec.target) not in exclude

    def test_everything_excluded_raises(self):
        topology = make_topology("mesh", 4)
        rng = random.Random(0)
        with pytest.raises(ValueError):
            FaultSpec.random(rng, topology,
                             fault_type=FaultType.NODE_FAILURE,
                             exclude={0, 1, 2, 3})
        with pytest.raises(ValueError):
            FaultSpec.random(
                rng, topology, fault_type=FaultType.LINK_FAILURE,
                exclude={frozenset((a, b))
                         for a, _, b, _ in topology.links()})

    def test_excluded_targets_feed_exclude(self):
        spec = FaultSpec.node_failure(2)
        assert spec.excluded_targets() == {2}
        link = FaultSpec.link_failure(0, 1)
        assert link.excluded_targets() == {frozenset((0, 1))}


class TestPlanStability:
    def test_plan_run_is_pure(self):
        runner = CampaignRunner(campaign_seed=5, num_nodes=8)
        for index in (0, 3, 17):
            seed_a, schedule_a = runner.plan_run(index)
            seed_b, schedule_b = runner.plan_run(index)
            assert seed_a == seed_b == derive_run_seed(5, index)
            assert schedule_a.to_dict() == schedule_b.to_dict()

    def test_two_runners_agree(self):
        plans_a = [CampaignRunner(campaign_seed=9).plan_run(i)
                   for i in range(5)]
        plans_b = [CampaignRunner(campaign_seed=9).plan_run(i)
                   for i in range(5)]
        for (seed_a, sched_a), (seed_b, sched_b) in zip(plans_a, plans_b):
            assert seed_a == seed_b
            assert sched_a.to_dict() == sched_b.to_dict()

    def test_schedule_generator_is_seed_deterministic(self):
        sched_a = make_schedule("random-multi", random.Random(21))
        sched_b = make_schedule("random-multi", random.Random(21))
        assert sched_a.to_dict() == sched_b.to_dict()

    def test_replay_mode_uses_campaign_seed_literally(self):
        fixed = FaultSchedule(
            entries=(TimedFault(FaultSpec.node_failure(1), time=0.0),),
            num_nodes=4)
        runner = CampaignRunner(schedule=fixed, campaign_seed=1234)
        seed, schedule = runner.plan_run(0)
        assert seed == 1234 and schedule is fixed


class TestRunDeterminism:
    def test_same_seed_identical_run_records(self):
        """The full replay property: two executions of one (schedule, seed)
        agree on everything — verdict, episodes, metrics, virtual time."""
        schedule = FaultSchedule(
            entries=(
                TimedFault(FaultSpec.node_failure(3), time=100_000.0),
                TimedFault(FaultSpec.link_failure(0, 1), time=400_000.0),
            ),
            num_nodes=4)
        config = MachineConfig(num_nodes=4, mem_per_node=64 << 10,
                               l2_size=8 << 10, seed=42)

        def run():
            result = run_schedule_experiment(schedule, config=config,
                                             seed=42, collect_metrics=True)
            return {
                "passed": result.passed,
                "problems": result.problems,
                "episodes": result.episodes,
                "restarts": result.restarts,
                "skipped": result.skipped_injections,
                "metrics": result.metrics,
            }

        first, second = run(), run()
        assert first == second
        assert first["metrics"]["sim_ns"] == second["metrics"]["sim_ns"]
        assert (first["metrics"]["sim_events"]
                == second["metrics"]["sim_events"])


class TestPinnedCampaignFile:
    def test_campaign_jsonl_matches_pinned_digest(self, tmp_path):
        """Byte identity of the file a campaign writes: ``fault-during-
        recovery``, seed 7, 6 runs, every line minus ``elapsed_s``, pinned
        at a109e33 (the last commit before fuzz sessions wrote the same
        record type), re-pinned when P3's tables became up*/down* over
        every surviving link (simulated times, event and packet counts
        moved; every status, restart count and episode count stayed), and
        re-pinned to the parent's keep-last output when that became the
        only pooled policy (one pass instead of one per mode), and
        re-pinned when ``recovery.timeline`` replaced
        ``metrics.availability`` and ``recovery.total_ms_percentiles``
        (no other field moved), and re-pinned when MAGIC's dispatch became
        a scheduled callback (only ``metrics.sim_events`` moved; the
        digest below held), and re-pinned when router and NI-pump wakes
        became exact-match (only ``metrics.sim_events`` moved; the digest
        below held).  A change that moves it changed what
        campaigns put on disk — a key that should have been left out when
        empty, say."""
        digest = hashlib.sha256()
        path = tmp_path / "runs.jsonl"
        CampaignRunner(kind="fault-during-recovery", runs=6,
                       campaign_seed=7, jobs=1, out_path=str(path)).run()
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            row = json.loads(line)
            assert line == json.dumps(row, sort_keys=True)
            del row["elapsed_s"]
            digest.update(json.dumps(row, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "1b1cda24e5996254a657c981030cd007ee10473f422f9a470f39a647a5e14b55")

    def test_campaign_verdicts_match_pinned_digest(self, tmp_path):
        """The same file minus ``metrics.sim_events`` as well: every
        status, problem, episode, forensics block and flight window.  A
        change that only cuts no-op events re-pins the digest above and
        leaves this one alone, so a moved event count cannot hide a moved
        verdict."""
        digest = hashlib.sha256()
        path = tmp_path / "runs.jsonl"
        CampaignRunner(kind="fault-during-recovery", runs=6,
                       campaign_seed=7, jobs=1, out_path=str(path)).run()
        for line in path.read_text().splitlines():
            row = json.loads(line)
            del row["elapsed_s"]
            del row["metrics"]["sim_events"]
            digest.update(json.dumps(row, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "f74177a8e3e6d0f6a07229cabcbcefc8ba8571246c65aeaf2a34e3227e51f3be")
