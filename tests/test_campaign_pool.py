"""The batch worker pool and its machine-reuse determinism contract.

A pooled worker holds one :class:`~repro.core.machine.MachineFactory`
for its lifetime and builds every run's machine through it.  That is
only sound if a machine built from a reused factory behaves
bit-identically to a fresh one — the directed test here — and if the
pool's records match inline fresh-machine execution byte for byte.

The pool's ``drive`` is the one loop every campaign, fuzz session and
replay runs on, so the harness itself is fault-injected here: a stale
result, a watchdog kill and a SIGKILLed worker must each cost exactly
the run they hit.
"""

import json
import os
import random
import signal

from repro.campaign import pool as pool_module
from repro.campaign.pool import BatchWorkerPool, _execute_schedule_run
from repro.campaign.records import RunStatus, load_records
from repro.campaign.runner import CampaignRunner
from repro.campaign.schedule import make_schedule
from repro.core.machine import MachineFactory


def _strip_wall_clock(payload):
    """The payload minus wall time, with a flight dump's packet uids
    rebased to its smallest: uids come from a process-wide counter, so
    they depend on what else ran in that process (ROADMAP item 3)."""
    data = json.loads(json.dumps(payload))
    data.pop("elapsed_s", None)
    packets = [event["data"] for event in data.get("flight", {})
               .get("events", ()) if "uid" in event["data"]]
    if packets:
        base = min(packet["uid"] for packet in packets)
        for packet in packets:
            packet["uid"] -= base
    return data


def _schedules(count, num_nodes=4):
    rng = random.Random(17)
    return [make_schedule("random-multi", rng, num_nodes=num_nodes)
            for _ in range(count)]


class TestMachineReuseDeterminism:
    def test_reused_factory_matches_fresh_machines(self):
        """The directed test: one factory across back-to-back runs vs a
        fresh machine per run — identical payloads (minus wall clock)."""
        schedules = _schedules(3)
        factory = MachineFactory()
        reused = [_execute_schedule_run(
            schedule.to_dict(), seed=100 + index,
            run_limit=60_000_000_000, mem_per_node=64 << 10,
            l2_size=8 << 10, factory=factory)
            for index, schedule in enumerate(schedules)]
        fresh = [_execute_schedule_run(
            schedule.to_dict(), seed=100 + index,
            run_limit=60_000_000_000, mem_per_node=64 << 10,
            l2_size=8 << 10)
            for index, schedule in enumerate(schedules)]
        for left, right in zip(reused, fresh):
            assert _strip_wall_clock(left) == _strip_wall_clock(right)

    def test_reuse_holds_with_coverage_extraction(self):
        schedule = _schedules(1)[0]
        factory = MachineFactory()
        reused = _execute_schedule_run(
            schedule.to_dict(), seed=7, run_limit=60_000_000_000,
            mem_per_node=64 << 10, l2_size=8 << 10, factory=factory,
            coverage=True)
        fresh = _execute_schedule_run(
            schedule.to_dict(), seed=7, run_limit=60_000_000_000,
            mem_per_node=64 << 10, l2_size=8 << 10, coverage=True)
        assert _strip_wall_clock(reused) == _strip_wall_clock(fresh)

    def test_factory_memoizes_topology(self):
        factory = MachineFactory()
        from repro.core.config import MachineConfig
        config = MachineConfig(num_nodes=4, mem_per_node=64 << 10,
                               l2_size=8 << 10, seed=1)
        machine_a = factory.build(config)
        machine_b = factory.build(config)
        assert machine_a.topology is machine_b.topology


def _drive(pool, tasks, on_result=None):
    """Run ``tasks`` (run_index, schedule, seed) through ``pool.drive``;
    returns {run_index: payload}."""
    tasks = list(tasks)
    got = {}

    def next_task():
        if not tasks:
            return None
        index, schedule, seed = tasks.pop(0)
        return index, schedule.to_dict(), seed

    def deliver(run_index, payload):
        assert run_index not in got, "run %d delivered twice" % run_index
        got[run_index] = payload
        if on_result is not None:
            on_result(run_index, payload)

    pool.drive(next_task, deliver)
    return got


class TestBatchWorkerPool:
    def test_pool_results_match_inline_execution(self):
        schedules = _schedules(4)
        expected = {
            index: _strip_wall_clock(_execute_schedule_run(
                schedule.to_dict(), seed=200 + index,
                run_limit=60_000_000_000, mem_per_node=64 << 10,
                l2_size=8 << 10))
            for index, schedule in enumerate(schedules)}
        with BatchWorkerPool(jobs=2, timeout_s=120.0,
                             run_limit=60_000_000_000) as pool:
            got = _drive(pool, [(index, schedule, 200 + index)
                                for index, schedule in enumerate(schedules)])
        assert {index: _strip_wall_clock(payload)
                for index, payload in got.items()} == expected

    def test_pool_statuses_are_valid(self):
        statuses = {status.value for status in RunStatus}
        with BatchWorkerPool(jobs=1, timeout_s=120.0,
                             run_limit=60_000_000_000) as pool:
            got = _drive(pool, [(0, _schedules(1)[0], 5)])
        assert got[0]["status"] in statuses

    def test_next_task_waits_for_available_results(self):
        """With one worker, run i+1 is planned only after run i was
        delivered — what keeps a jobs=1 fuzz session deterministic."""
        schedules = _schedules(3)
        events = []
        tasks = [(index, schedule, 300 + index)
                 for index, schedule in enumerate(schedules)]

        def next_task():
            if not tasks:
                return None
            index, schedule, seed = tasks.pop(0)
            events.append(("plan", index))
            return index, schedule.to_dict(), seed

        ticks = []
        with BatchWorkerPool(jobs=1, timeout_s=120.0) as pool:
            pool.drive(next_task,
                       lambda index, payload: events.append(("done", index)),
                       ticks.append)
        assert events == [("plan", 0), ("done", 0), ("plan", 1),
                          ("done", 1), ("plan", 2), ("done", 2)]
        assert ticks and ticks[-1] == []
        for in_flight in ticks:
            assert all(set(entry) == {"run_index", "elapsed_s"}
                       for entry in in_flight)

    def test_result_from_retired_worker_is_dropped(self, monkeypatch):
        """A worker that posts just before the watchdog kills it must not
        complete the run a second time (regression: the duplicate used to
        reach the caller and KeyError the batch).  Its result sits unread
        in its pipe when the deadline passes; the retired pipe goes with
        the worker."""
        schedules = _schedules(2)
        real_wait = pool_module.wait

        def late(conns, timeout):
            for conn in conns:
                conn.poll(None)       # the result has arrived ...
            pool.timeout_s = 0.0      # ... and the deadline passes first
            monkeypatch.setattr(pool_module, "wait", real_wait)
            return []

        def relax(run_index, payload):
            pool.timeout_s = 120.0

        monkeypatch.setattr(pool_module, "wait", late)
        with BatchWorkerPool(jobs=1, timeout_s=120.0) as pool:
            retired = pool.workers[0]
            got = _drive(pool, [(0, schedules[0], 5), (1, schedules[1], 6)],
                         on_result=relax)
        assert retired.conn.closed
        assert got[0]["status"] == RunStatus.HUNG.value
        assert got[1]["status"] != RunStatus.HUNG.value

    def test_hung_run_then_normal_run_on_respawned_slot(self):
        schedules = _schedules(2)
        with BatchWorkerPool(jobs=1, timeout_s=0.05) as pool:
            first_worker = pool.workers[0]

            def relax(run_index, payload):
                pool.timeout_s = 120.0

            got = _drive(pool, [(0, schedules[0], 1), (1, schedules[1], 2)],
                         on_result=relax)
            assert pool.workers[0] is not first_worker
        assert got[0]["status"] == RunStatus.HUNG.value
        assert "watchdog" in got[0]["error"]
        assert _strip_wall_clock(got[1]) == _strip_wall_clock(
            _execute_schedule_run(
                schedules[1].to_dict(), seed=2, run_limit=60_000_000_000,
                mem_per_node=64 << 10, l2_size=8 << 10))


_RECORD_FIELDS = ("status", "problems", "restarts", "episodes", "metrics",
                  "forensics")


class TestCampaignRunnerOnPool:
    def test_campaign_records_match_inline_fresh_machines(self):
        """The reference: every record equals ``_execute_schedule_run`` of
        the same plan on a fresh machine in this process."""
        runner = CampaignRunner(kind="random-multi", runs=3,
                                campaign_seed=11, num_nodes=4, jobs=2,
                                timeout_s=120.0)
        records = runner.run().records
        assert [record.run_index for record in records] == [0, 1, 2]
        for record in records:
            seed, schedule = runner.plan_run(record.run_index)
            payload = _execute_schedule_run(
                schedule.to_dict(), seed, runner.run_limit,
                runner.mem_per_node, runner.l2_size)
            expected = CampaignRunner._record(record.run_index, seed,
                                              schedule, payload)
            assert record.seed == seed
            assert record.schedule == schedule.to_dict()
            for field in _RECORD_FIELDS:
                assert getattr(record, field) == getattr(expected, field)

    def test_sigkilled_worker_costs_one_run(self, tmp_path, monkeypatch):
        """SIGKILL a worker mid-run: that run is CRASHED, the slot
        respawns, every other run completes, the record set is whole."""
        submit = BatchWorkerPool._submit
        killed = []

        def submit_and_kill(worker, task):
            submit(worker, task)
            if task[0] == 2:
                killed.append(worker.process.pid)
                os.kill(worker.process.pid, signal.SIGKILL)

        monkeypatch.setattr(BatchWorkerPool, "_submit",
                            staticmethod(submit_and_kill))
        path = str(tmp_path / "runs.jsonl")
        summary = CampaignRunner(kind="random-multi", runs=5,
                                 campaign_seed=11, num_nodes=4, jobs=2,
                                 timeout_s=120.0, out_path=path).run()
        assert len(killed) == 1
        assert [record.run_index for record in summary.records] \
            == list(range(5))
        assert {record.run_index: record.status
                for record in summary.records
                if record.status.is_abort} == {2: RunStatus.CRASHED}
        assert "died without reporting" in summary.records[2].error
        assert sorted(record.run_index for record in load_records(path)) \
            == list(range(5))
