"""Persistent crash-isolated workers and the one loop that drives them.

Every run of a campaign, a fuzz session, a replay or a shrinker check
executes in a :class:`BatchWorkerPool` worker, and
:meth:`BatchWorkerPool.drive` is the only loop that feeds workers,
collects results and runs the watchdog.  A wedged or crashing run becomes
a HUNG/CRASHED payload, never the death of the batch:

* each worker is a long-lived subprocess holding a
  :class:`~repro.core.machine.MachineFactory`, so consecutive runs whose
  shape parameters match share topology construction and no run pays
  process startup or module imports;
* the pool tracks one in-flight task per worker; a watchdog kills and
  respawns the whole worker when a task exceeds its wall-clock budget, so
  one wedged schedule costs one worker restart, not the batch;
* results arrive on a shared queue tagged with the worker id, and a result
  is delivered only while that worker still holds that run — completion
  stays strictly attributable even across respawns.

Determinism is untouched: a run executes the same
:func:`~repro.core.experiment.run_schedule_experiment` with the same
(schedule, seed) regardless of which worker picks it up, and a directed
test proves factory-reused and fresh machines produce bit-identical
records.
"""

# repro-lint: disable-file=wall-clock — this module is the real-time
# boundary: watchdogs and elapsed_s measure wall clock around
# crash-isolated workers; nothing here runs under the event scheduler.

import multiprocessing
import queue as queue_module
import time

from repro.campaign.records import RunStatus
# the window of ``telemetry_mode="flight"`` workers: one number, defined
# beside the retention policy it sizes
from repro.telemetry.flight import DEFAULT_CAPACITY as FLIGHT_CAPACITY

#: newest events a dumped flight window keeps in the run record (the full
#: ring still feeds in-process forensics; the record stays one JSONL line)
FLIGHT_DUMP_EVENTS = 2_000

#: stray protocol messages after which a flight worker dumps its window
#: even on a PASS verdict — a stray storm is evidence worth keeping
STRAY_DUMP_THRESHOLD = 5

#: longest the driving loop blocks on the result queue: the cadence of
#: status heartbeats and of noticing a worker that died without reporting
HEARTBEAT_S = 0.5


def _attach_flight(payload, telemetry):
    """Attach a keep-last recorder's tail window to a worker payload; a
    head-capped trace (or a crash before any recorder exists) adds none."""
    recorder = None if telemetry is None else telemetry.recorder
    if recorder is not None and recorder.keep == "last":
        payload["flight"] = recorder.dump(limit=FLIGHT_DUMP_EVENTS)
    return payload


def _execute_schedule_run(schedule_dict, seed, run_limit, mem_per_node,
                          l2_size, factory=None, coverage=False,
                          telemetry_mode="trace"):
    """Run one (schedule, seed) to a payload dict; never raises.

    With ``coverage=True`` the payload additionally carries the fuzzer's
    per-run coverage summary (feature strings + containment times).
    ``telemetry_mode="flight"`` swaps the recorder's retention policy from
    the first 200 000 events to the last :data:`FLIGHT_CAPACITY` — the
    mode for very large sweeps; a FAIL/HUNG/CRASHED verdict (or a
    stray-message storm) then dumps the tail window into the payload.
    """
    started = time.monotonic()
    telemetry = None
    try:
        from repro.campaign.schedule import FaultSchedule
        from repro.core.config import MachineConfig
        from repro.core.experiment import run_schedule_experiment
        from repro.core.machine import FlashMachine
        from repro.telemetry import Telemetry
        from repro.telemetry.forensics import forensic_summary
        schedule = FaultSchedule.from_dict(schedule_dict)
        config = MachineConfig(
            num_nodes=schedule.num_nodes, topology=schedule.topology,
            mem_per_node=mem_per_node, l2_size=l2_size, seed=seed)
        # A recorder is attached to every campaign run (bit-identical to
        # untraced by the §9 contract) so a FAIL verdict arrives with its
        # forensic story attached instead of needing a re-run to diagnose:
        # head-capped by default, the last-N window in flight mode.
        if telemetry_mode == "flight":
            telemetry = Telemetry(trace=False, flight=FLIGHT_CAPACITY)
        else:
            telemetry = Telemetry(max_events=200_000)
        if factory is not None:
            machine = factory.build(config, telemetry=telemetry)
        else:
            machine = FlashMachine(config, telemetry=telemetry)
        result = run_schedule_experiment(schedule, seed=seed,
                                         run_limit=run_limit,
                                         telemetry=telemetry,
                                         collect_metrics=True,
                                         machine=machine)
        payload = {
            "status": (RunStatus.PASS if result.passed
                       else RunStatus.FAIL).value,
            "problems": list(result.problems),
            "restarts": result.restarts,
            "episodes": result.episodes,
            "elapsed_s": time.monotonic() - started,
            "metrics": result.metrics or {},
        }
        if not result.passed:
            payload["forensics"] = forensic_summary(telemetry.recorder)
        if telemetry_mode == "flight":
            strays = sum(node.magic.stats.stray_messages
                         for node in machine.nodes)
            if not result.passed or strays >= STRAY_DUMP_THRESHOLD:
                _attach_flight(payload, telemetry)
        if coverage:
            from repro.fuzz.coverage import run_coverage
            payload["coverage"] = run_coverage(machine, result,
                                               telemetry.recorder)
        return payload
    except (TimeoutError, RuntimeError) as exc:
        # Simulation-limit and deadlock/heap-drain conditions: the run
        # never reached a verdict.
        return _attach_flight({
            "status": RunStatus.HUNG.value,
            "error": "%s: %s" % (type(exc).__name__, exc),
            "elapsed_s": time.monotonic() - started,
        }, telemetry)
    except BaseException:   # repro-lint: disable=broad-except — the
        # crash-isolation boundary itself: any worker death must become a
        # CRASHED record, not kill the campaign batch.
        import traceback
        return _attach_flight({
            "status": RunStatus.CRASHED.value,
            "error": traceback.format_exc(),
            "elapsed_s": time.monotonic() - started,
        }, telemetry)


def _batch_worker(task_queue, result_queue, worker_id, run_limit,
                  mem_per_node, l2_size, coverage, telemetry_mode):
    """Long-lived worker loop: one task at a time until the None sentinel.

    The factory lives for the worker's whole life, which is exactly the
    machine-reuse amortization: every run in this worker with matching
    shape parameters shares topology construction.
    """
    import warnings
    warnings.simplefilter("ignore")   # skipped-injection warnings are data
    from repro.core.machine import MachineFactory
    factory = MachineFactory()
    while True:
        task = task_queue.get()
        if task is None:
            return
        run_index, schedule_dict, seed = task
        payload = _execute_schedule_run(
            schedule_dict, seed, run_limit, mem_per_node, l2_size,
            factory=factory, coverage=coverage,
            telemetry_mode=telemetry_mode)
        result_queue.put((worker_id, run_index, payload))


class _Worker:
    """One pool slot: a subprocess plus its private task queue."""

    def __init__(self, worker_id, result_queue, run_limit, mem_per_node,
                 l2_size, coverage, telemetry_mode):
        self.worker_id = worker_id
        self.task_queue = multiprocessing.Queue()
        self.process = multiprocessing.Process(
            target=_batch_worker,
            args=(self.task_queue, result_queue, worker_id, run_limit,
                  mem_per_node, l2_size, coverage, telemetry_mode),
            daemon=True)
        self.process.start()
        self.task = None          # (run_index, schedule_dict, seed)
        self.started = None


class BatchWorkerPool:
    """A fixed set of persistent workers with per-task watchdogs.

    Usage: :meth:`drive` with a task source and a result sink; a task that
    blows its wall-clock budget or kills its worker comes back as a HUNG
    or CRASHED payload and the worker slot is respawned.  ``close``
    always — the workers are daemons, but an orderly sentinel shutdown
    keeps queue feeder threads from complaining.
    """

    def __init__(self, jobs=1, timeout_s=300.0, run_limit=60_000_000_000,
                 mem_per_node=64 << 10, l2_size=8 << 10, coverage=False,
                 telemetry_mode="trace"):
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.run_limit = run_limit
        self.mem_per_node = mem_per_node
        self.l2_size = l2_size
        self.coverage = coverage
        self.telemetry_mode = telemetry_mode
        self.result_queue = multiprocessing.Queue()
        self._next_worker_id = 0
        self.workers = [self._spawn() for _ in range(self.jobs)]

    def _spawn(self):
        worker = _Worker(self._next_worker_id, self.result_queue,
                         self.run_limit, self.mem_per_node, self.l2_size,
                         self.coverage, self.telemetry_mode)
        self._next_worker_id += 1
        return worker

    # ------------------------------------------------------------- driving

    def drive(self, next_task, on_result, on_tick=None):
        """Run tasks until the source is dry and every worker is idle.

        ``next_task()`` returns ``(run_index, schedule_dict, seed)`` or
        None when there is nothing (more) to run.  It is asked only when a
        worker is idle and only after every result already available went
        to ``on_result(run_index, payload)`` — a one-worker caller plans
        run *i+1* having absorbed run *i*.  ``on_tick(in_flight)`` fires
        after every wait with the runs still executing, as
        ``{"run_index", "elapsed_s"}`` dicts.

        The loop blocks on the result queue, never sleeps: the wait is
        bounded by the nearest watchdog deadline and :data:`HEARTBEAT_S`.
        """
        while True:
            for worker in self.workers:
                if worker.task is None:
                    task = next_task()
                    if task is None:
                        break
                    self._submit(worker, task)
            busy = [worker for worker in self.workers
                    if worker.task is not None]
            if not busy:
                return
            deadline = min(worker.started for worker in busy) \
                + self.timeout_s
            wait_s = max(0.0, min(HEARTBEAT_S, deadline - time.monotonic()))
            for run_index, payload in self._collect(wait_s):
                on_result(run_index, payload)
            if on_tick is not None:
                now = time.monotonic()
                on_tick([{"run_index": worker.task[0],
                          "elapsed_s": round(now - worker.started, 2)}
                         for worker in self.workers
                         if worker.task is not None])

    @staticmethod
    def _submit(worker, task):
        worker.task = task
        worker.started = time.monotonic()
        worker.task_queue.put(task)

    def _collect(self, wait_s):
        """Collect finished runs; returns a list of (run_index, payload).

        Blocks up to ``wait_s`` for the first result, then drains what is
        queued.  A result whose worker no longer holds that run (the
        watchdog or the death check already answered for it) is dropped.
        Then the watchdog: any worker whose task exceeded the budget (or
        whose process died without reporting) yields a HUNG/CRASHED
        payload and a fresh worker takes its slot.
        """
        finished = []
        by_id = {worker.worker_id: worker for worker in self.workers}
        while True:
            try:
                worker_id, run_index, payload = \
                    self.result_queue.get(timeout=wait_s)
            except queue_module.Empty:
                break
            wait_s = 0.0
            worker = by_id.get(worker_id)
            if worker is None or worker.task is None \
                    or worker.task[0] != run_index:
                continue
            finished.append((run_index, payload))
            worker.task = None
            worker.started = None

        for index, worker in enumerate(self.workers):
            if worker.task is None:
                continue
            elapsed = time.monotonic() - worker.started
            if not worker.process.is_alive():
                finished.append((worker.task[0], {
                    "status": RunStatus.CRASHED.value,
                    "error": ("batch worker died without reporting "
                              "(exitcode %s)" % worker.process.exitcode),
                    "elapsed_s": elapsed,
                }))
                self.workers[index] = self._spawn()
            elif elapsed >= self.timeout_s:
                self._kill(worker)
                finished.append((worker.task[0], {
                    "status": RunStatus.HUNG.value,
                    "error": ("watchdog: run exceeded %.0fs wall clock"
                              % self.timeout_s),
                    "elapsed_s": elapsed,
                }))
                self.workers[index] = self._spawn()
        return finished

    @staticmethod
    def _kill(worker):
        worker.process.terminate()
        worker.process.join(5.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(5.0)

    # ------------------------------------------------------------ shutdown

    def close(self):
        for worker in self.workers:
            if worker.process.is_alive():
                worker.task_queue.put(None)
        deadline = time.monotonic() + 5.0
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                self._kill(worker)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False
