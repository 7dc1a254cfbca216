"""The batch worker pool and its record-purity contract.

A run's payload is a function of its ``(schedule, seed)`` alone.  A
pooled worker runs many schedules back to back, so that holds only if
nothing survives a run: every run builds a fresh machine, and the
machine owns every id its run hands out (packet uids, store values,
router-control keys).  The directed tests here run the same red plans
forward and reversed through one worker, compare ``jobs=1`` against
``jobs=3``, and watch the heap of a process that runs many schedules.

The pool's ``drive`` is the one loop every campaign, fuzz session and
replay runs on, so the harness itself is fault-injected here: a stale
result, a watchdog kill and a SIGKILLed worker must each cost exactly
the run they hit.
"""

import gc
import json
import os
import random
import signal
import tracemalloc

from repro.campaign import pool as pool_module
from repro.campaign.pool import BatchWorkerPool, _execute_schedule_run
from repro.campaign.records import RunStatus, load_records
from repro.campaign.runner import CampaignRunner
from repro.campaign.schedule import make_schedule


def _strip_wall_clock(payload):
    """The payload minus wall time, the one field two runs of one
    ``(schedule, seed)`` may disagree on."""
    data = json.loads(json.dumps(payload))
    data.pop("elapsed_s", None)
    return data


def _schedules(count, num_nodes=4):
    rng = random.Random(17)
    return [make_schedule("random-multi", rng, num_nodes=num_nodes)
            for _ in range(count)]


def _red_plans(count, num_nodes=8):
    """Run indices and plans of ``correlated-link-router`` seed 0: most
    of its runs partition the machine and FAIL with a flight dump."""
    runner = CampaignRunner(kind="correlated-link-router", campaign_seed=0,
                            num_nodes=num_nodes)
    return [(index,) + runner.plan_run(index) for index in range(count)]


class TestRecordPurity:
    def test_run_order_in_one_worker_does_not_change_payloads(self):
        """The same plans forward, then reversed, through one worker with
        coverage extraction on: equal payloads, flight dumps included."""
        plans = _red_plans(4)
        again = len(plans)
        with BatchWorkerPool(jobs=1, timeout_s=120.0, coverage=True) as pool:
            got = _drive(pool, [(index, schedule, seed)
                                for index, seed, schedule in plans]
                         + [(again + index, schedule, seed)
                            for index, seed, schedule in plans[::-1]])
        forward = [got[index] for index in range(again)]
        reversed_ = [got[again + index] for index in range(again)]
        assert sum(payload["status"] == RunStatus.FAIL.value
                   and "flight" in payload for payload in forward) >= 2
        assert all(payload["coverage"] for payload in forward)
        assert ([_strip_wall_clock(payload) for payload in forward]
                == [_strip_wall_clock(payload) for payload in reversed_])

    def test_jobs_do_not_change_records(self, tmp_path):
        records = {}
        for jobs in (1, 3):
            path = tmp_path / ("jobs%d.jsonl" % jobs)
            CampaignRunner(kind="correlated-link-router", runs=6,
                           campaign_seed=0, jobs=jobs, timeout_s=120.0,
                           out_path=str(path)).run()
            rows = [json.loads(line)
                    for line in path.read_text().splitlines()]
            for row in rows:
                del row["elapsed_s"]
            records[jobs] = sorted(rows, key=lambda row: row["run_index"])
        assert [row["run_index"] for row in records[1]] == list(range(6))
        assert any(row["flight"] for row in records[1])
        assert records[1] == records[3]

    def test_no_state_survives_a_run(self):
        """Retaining one run's machine or recorder costs megabytes; the
        traced heap after the last run stays within 1 MB of run 3's."""
        heaps = []
        tracemalloc.start()
        try:
            for _, seed, schedule in _red_plans(6, num_nodes=4):
                _execute_schedule_run(
                    schedule.to_dict(), seed, run_limit=60_000_000_000,
                    mem_per_node=64 << 10, l2_size=8 << 10)
                gc.collect()
                heaps.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert heaps[-1] - heaps[2] < 1 << 20, heaps


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
