"""The always-on flight recorder and the sim-time profiler (DESIGN.md §15).

Two contracts anchor this file:

* **bit-identity** — a run with a FlightRecorder or SimProfiler attached
  executes the same events to the same virtual time and recovery outcome
  as a bare run (the §9 zero-perturbation rule extended to the new
  observers);
* **tail-window semantics** — the ring keeps the *last* N events with
  global eids, its dump survives a JSON round trip, and forensics can
  audit the window with the truncation caveat intact.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.campaign.pool import _execute_schedule_run
from repro.campaign.runner import CampaignRunner
from repro.campaign.schedule import SCHEDULE_GENERATORS, make_schedule
from repro.core.config import MachineConfig
from repro.core.experiment import run_schedule_experiment
from repro.core.machine import FlashMachine
from repro.telemetry import Telemetry
from repro.telemetry.flight import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    analyze_dump,
    events_from_dump,
)
from repro.telemetry.forensics import analyze, forensic_summary
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.scalability import run_scalability_point


def small_schedule(num_nodes=4, seed=17):
    rng = random.Random(seed)
    return make_schedule("random-multi", rng, num_nodes=num_nodes)


def campaign_payload(kind, run_index, run_limit=60_000_000_000):
    """What a worker hands back for run ``run_index`` of the 8-node
    campaign (seed 7) of ``kind``, minus its wall time."""
    seed, schedule = CampaignRunner(
        kind=kind, campaign_seed=7).plan_run(run_index)
    payload = _execute_schedule_run(
        schedule.to_dict(), seed, run_limit, mem_per_node=64 << 10,
        l2_size=8 << 10)
    del payload["elapsed_s"]
    return payload


# ------------------------------------------------------------------ ring


class TestFlightRing:
    def test_keeps_last_n_with_global_eids(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(7):
            recorder.emit("pkt", "send", node=index)
        assert len(recorder) == 3
        assert recorder.total_emitted == 7
        assert recorder.dropped_events == 4
        events = recorder.events
        # Oldest-first window of the newest events, eids are stream indices.
        assert [event.eid for event in events] == [4, 5, 6]
        assert [event.node for event in events] == [4, 5, 6]

    def test_fills_before_evicting(self):
        recorder = FlightRecorder(capacity=5)
        for _ in range(4):
            recorder.emit("a", "b")
        assert recorder.dropped_events == 0
        assert [event.eid for event in recorder.events] == [0, 1, 2, 3]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_disabled_ring_records_nothing(self):
        recorder = FlightRecorder(capacity=4)
        recorder.enabled = False
        assert recorder.emit("a", "b") is None
        assert len(recorder) == 0

    def test_clear_resets_ring_and_counters(self):
        recorder = FlightRecorder(capacity=2)
        for _ in range(5):
            recorder.emit("a", "b")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.total_emitted == 0
        assert recorder.dropped_events == 0
        recorder.emit("a", "b")
        assert [event.eid for event in recorder.events] == [0]

    def test_cause_edges_survive_eviction_as_dangling(self):
        recorder = FlightRecorder(capacity=2)
        root = recorder.emit("fault", "inject")
        child = recorder.emit("pkt", "send", cause=root)
        recorder.emit("pkt", "recv", cause=child)   # evicts the root
        events = recorder.events
        _children, dangling = __import__(
            "repro.telemetry.forensics", fromlist=["build_dag"]
        ).build_dag(events)
        assert dangling == 1   # the evicted root's edge dangles, no crash

    def test_recorder_api_compatibility(self):
        """Consumers written against TraceRecorder (timelines, chrome
        export, forensics) read .events/.events_of/.count unchanged."""
        recorder = FlightRecorder(capacity=8)
        recorder.emit("pkt", "send")
        recorder.emit("pkt", "recv")
        recorder.emit("detect", "timeout")
        assert recorder.count("pkt") == 2
        assert [e.key for e in recorder.events_of("detect")] == [
            "detect.timeout"]


class TestFlightDump:
    def test_dump_round_trips_through_json(self):
        recorder = FlightRecorder(capacity=4)
        a = recorder.emit("fault", "inject", node=1, fault="node_failure")
        recorder.emit("pkt", "send", node=1, cause=(a,))
        dump = json.loads(json.dumps(recorder.dump(), sort_keys=True))
        events = events_from_dump(dump)
        assert [event.key for event in events] == ["fault.inject",
                                                   "pkt.send"]
        assert events[1].cause == (a,)          # list -> tuple restored
        assert dump["evicted"] == 0

    def test_dump_limit_counts_clipped_as_evicted(self):
        recorder = FlightRecorder(capacity=10)
        for index in range(8):
            recorder.emit("pkt", "send", node=index)
        # limit -> eids shipped; the rest count as clipped (the ring
        # itself never evicted).  0 ships nothing, not everything.
        for limit, kept in ((3, [5, 6, 7]), (0, []), (8, list(range(8))),
                            (50, list(range(8))), (None, list(range(8)))):
            dump = recorder.dump(limit=limit)
            assert [entry["eid"] for entry in dump["events"]] == kept
            assert dump["evicted"] == 8 - len(kept)

    def test_analyze_dump_carries_truncation_caveat(self):
        recorder = FlightRecorder(capacity=2)
        for _ in range(5):
            recorder.emit("pkt", "send")
        report = analyze_dump(recorder.dump())
        assert report.truncated
        assert report.dropped_events == 3


# ----------------------------------------------------------- bit-identity


class TestObserverBitIdentity:
    def test_flight_attached_run_is_identical(self):
        plain = run_scalability_point(4, seed=3)
        flight = run_scalability_point(
            4, seed=3, telemetry=Telemetry(trace=False, flight=2_000))
        assert plain["recovery"] == flight["recovery"]
        assert plain["sim"]["sim_ns"] == flight["sim"]["sim_ns"]
        assert (plain["sim"]["events_executed"]
                == flight["sim"]["events_executed"])

    def test_profiler_attached_run_is_identical(self):
        schedule = small_schedule()
        outcomes = []
        for attach in (False, True):
            config = MachineConfig(num_nodes=schedule.num_nodes,
                                   mem_per_node=64 << 10, l2_size=8 << 10,
                                   seed=11)
            machine = FlashMachine(config)
            if attach:
                machine.sim.profiler = SimProfiler()
            result = run_schedule_experiment(schedule, seed=11,
                                             machine=machine,
                                             collect_metrics=True)
            outcomes.append((result.passed, tuple(result.problems),
                             result.restarts, result.episodes,
                             machine.sim.now,
                             machine.sim.events_executed))
        assert outcomes[0] == outcomes[1]
        # And the profiler actually saw the dispatches it timed.

    def test_flight_ring_matches_full_trace_tail(self):
        """The ring's window is exactly the last N events of a full trace
        of the same run — same keys, same eids."""
        schedule = small_schedule()

        def run_with(telemetry):
            config = MachineConfig(num_nodes=schedule.num_nodes,
                                   mem_per_node=64 << 10, l2_size=8 << 10,
                                   seed=5)
            machine = FlashMachine(config, telemetry=telemetry)
            run_schedule_experiment(schedule, seed=5, machine=machine,
                                    telemetry=telemetry)
            return telemetry.recorder

        full = run_with(Telemetry())
        ring = run_with(Telemetry(trace=False, flight=500))
        tail = full.events[-len(ring.events):]
        assert [e.eid for e in ring.events] == [e.eid for e in tail]
        assert [e.key for e in ring.events] == [e.key for e in tail]
        assert ring.total_emitted == len(full.events)


# --------------------------------------------------------------- profiler


class TestSimProfiler:
    def test_attribution_by_process_family(self):
        from repro.sim import Simulator
        sim = Simulator(seed=0)
        sim.profiler = SimProfiler()

        def worker(steps):
            for _ in range(steps):
                yield 10.0

        for index in range(3):
            sim.spawn(worker(5), name="worker%d" % index)
        sim.run()
        profiler = sim.profiler
        assert profiler.dispatches == sim.events_executed
        top = dict((label, count) for label, count, _ in profiler.top())
        # Digits normalize so the three instances aggregate as one family.
        assert top["workerN;worker"] == 3 * (5 + 1)   # steps + StopIteration

    def test_router_scans_and_pump_runs_keep_their_labels(self, monkeypatch):
        # Routers and NI pumps are plain callbacks, not processes; their
        # profile_label keeps a scan counted as a router wakeup and
        # nothing else (transfer completions, busy-timer notifies) as one.
        import functools
        from repro.interconnect.router import Router
        scans = []
        scan = Router._run

        @functools.wraps(scan)
        def counted_scan(router):
            scans.append(router.router_id)
            scan(router)

        monkeypatch.setattr(Router, "_run", counted_scan)
        schedule = small_schedule(num_nodes=8)
        config = MachineConfig(num_nodes=8, mem_per_node=64 << 10,
                               l2_size=8 << 10, seed=11)
        machine = FlashMachine(config)
        profiler = machine.sim.profiler = SimProfiler()
        run_schedule_experiment(schedule, seed=11, machine=machine)
        assert profiler.dispatches == machine.sim.events_executed
        counts = {label: count
                  for label, count, _ in profiler.top(limit=None)}
        assert counts["routerN"] == len(scans) > 0
        assert set(scans) == set(range(8))
        assert counts["niN.pump"] > 0
        assert counts["Router._complete_transfer"] > 0

    def test_merge_accumulates(self):
        left, right = SimProfiler(), SimProfiler()
        left._stats["a"] = [1, 0.25]
        right._stats["a"] = [2, 0.25]
        right._stats["b"] = [4, 1.0]
        left.merge(right)
        assert left._stats["a"] == [3, 0.5]
        assert left._stats["b"] == [4, 1.0]

    def test_snapshot_is_json_friendly(self):
        from repro.sim import Simulator
        sim = Simulator(seed=0)
        sim.profiler = SimProfiler()

        def once():
            yield 1.0

        sim.spawn(once(), name="p0")
        sim.run()
        snap = json.loads(json.dumps(sim.profiler.snapshot()))
        assert snap["dispatches"] == sim.events_executed
        assert "pN;once" in snap["handlers"]


# -------------------------------------------------- flight in the workers


class TestWorkerFlightMode:
    def test_trace_mode_payload_has_no_flight_key(self):
        """A clean PASS carries no window: only red runs and stray
        storms pay for a dump.  Every generator's payload carries its
        metrics."""
        payload = _execute_schedule_run(
            small_schedule().to_dict(), seed=4, run_limit=60_000_000_000,
            mem_per_node=64 << 10, l2_size=8 << 10)
        assert payload["status"] == "pass"
        assert "flight" not in payload
        for kind in sorted(SCHEDULE_GENERATORS):
            assert campaign_payload(kind, 0)["metrics"], kind

    @pytest.mark.parametrize("status", ["hung", "crashed", "fail"])
    def test_red_run_dumps_tail_window(self, status, monkeypatch):
        """Every red verdict arrives with the recorder's tail window —
        the always-on evidence contract.  HUNG: the run blows a tiny
        event budget.  CRASHED: the harness raises after the recorder
        exists.  FAIL: the oracle is forced to object."""
        import repro.core.experiment as experiment
        run_limit = 50_000 if status == "hung" else 60_000_000_000
        if status == "crashed":
            def explode(machine):
                raise ZeroDivisionError("injected after the recorder")
            monkeypatch.setattr("repro.telemetry.metrics.summarize_run",
                                explode)
        elif status == "fail":
            real = experiment.run_schedule_experiment

            def failing(*args, **kwargs):
                return dataclasses.replace(
                    real(*args, **kwargs), passed=False,
                    problems=["forced oracle failure"])
            monkeypatch.setattr(experiment, "run_schedule_experiment",
                                failing)
        payload = _execute_schedule_run(
            small_schedule().to_dict(), seed=4, run_limit=run_limit,
            mem_per_node=64 << 10, l2_size=8 << 10)
        assert payload["status"] == status
        dump = payload["flight"]
        assert dump["events"], "tail window must not be empty"
        assert dump["capacity"] == DEFAULT_CAPACITY
        # The dump is line-JSON-safe and forensics-readable.
        json.dumps(dump)
        analyze_dump(dump)

    def test_worker_payloads_match_pinned_digest(self):
        """Byte identity of what a worker hands back — summaries, metrics
        and HUNG flight dumps — pinned at 0013436 (the last commit with
        two recorder classes), re-pinned when P3's tables became
        up*/down* over every surviving link (every status, restart count
        and dump presence stayed), and re-pinned to the parent's
        keep-last output when that became the only pooled policy (only
        the dumps' ``capacity`` moved, 20 000 -> 200 000), and re-pinned
        when packet uids became per machine (only the dumps' uids moved:
        every status, restart count and HUNG dump stayed).  A change that
        moves it changed the records campaigns write.  The dumps are
        hashed as they are: a run's uids start at 0 in its own machine,
        so the digest cannot depend on which tests ran before."""
        digest = hashlib.sha256()
        hung_dumps = 0
        for kind in ("fault-during-recovery", "random-multi", "flaky-links"):
            for run_index in range(4):
                for run_limit in (60_000_000_000, 3_000_000):
                    payload = campaign_payload(kind, run_index, run_limit)
                    hung_dumps += "flight" in payload
                    digest.update(json.dumps(
                        payload, sort_keys=True).encode())
        assert hung_dumps == 12     # every 3 ms run, no other
        assert digest.hexdigest() == (
            "a6bb87213891d0369a5a2866ee9ad0d315c23c48d18d201bc2591cced2139cb7")


class TestFlightForensics:
    def test_forensics_summarize_flight_window(self):
        """Acceptance: with tracing off and the ring on, a failing run's
        window still yields a forensic audit.  A firewall-disabled machine
        guarantees an escape to audit."""
        from repro.core.experiment import run_validation_experiment
        from repro.faults.models import FaultSpec, FaultType

        telemetry = Telemetry(trace=False, flight=DEFAULT_CAPACITY)
        config = MachineConfig(num_nodes=4, mem_per_node=64 << 10,
                               l2_size=8 << 10, seed=2,
                               firewall_enabled=False)
        run_validation_experiment(
            FaultSpec(FaultType.NODE_FAILURE, 3), config=config, seed=2,
            telemetry=telemetry)
        recorder = telemetry.recorder
        assert isinstance(recorder, FlightRecorder)
        summary = forensic_summary(recorder)
        assert summary["faults"], "the injected fault must be in-window"
        assert summary["analyzed_events"] == len(recorder.events)
        # The same audit works on the dumped window after a JSON trip.
        dump = json.loads(json.dumps(recorder.dump(), sort_keys=True))
        report = analyze(events_from_dump(dump),
                         dropped_events=dump["evicted"])
        assert [f.root for f in report.faults] == [
            f["root"] for f in summary["faults"]]
