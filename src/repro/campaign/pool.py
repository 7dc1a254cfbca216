"""Persistent crash-isolated workers and the one loop that drives them.

Every run of a campaign, a fuzz session, a replay or a shrinker check
executes in a :class:`BatchWorkerPool` worker, and
:meth:`BatchWorkerPool.drive` is the only loop that feeds workers,
collects results and runs the watchdog.  A wedged or crashing run becomes
a HUNG/CRASHED payload, never the death of the batch:

* each worker is a long-lived subprocess, so no run pays process
  startup or module imports;
* the pool tracks one in-flight task per worker; a watchdog kills and
  respawns the whole worker when a task exceeds its wall-clock budget, so
  one wedged schedule costs one worker restart, not the batch;
* each worker has one duplex pipe that carries its tasks down and its
  results up, so a worker killed mid-send breaks only its own pipe, and
  the respawn discards it — completion stays strictly attributable.

A worker keeps nothing from one run to the next: every run builds a
fresh machine, and the machine owns every id its run hands out.  So a
payload is a function of its (schedule, seed) alone, whichever worker
runs it and whatever that worker ran before; directed tests compare
forward against reversed run order in one worker, and ``jobs=1``
against ``jobs=3``.
"""

# repro-lint: disable-file=wall-clock — this module is the real-time
# boundary: watchdogs and elapsed_s measure wall clock around
# crash-isolated workers; nothing here runs under the event scheduler.

import multiprocessing
import time
from multiprocessing.connection import wait

from repro.campaign.records import RunStatus
# the window every pooled run records into: one number, defined beside
# the retention policy it sizes
from repro.telemetry.flight import DEFAULT_CAPACITY as FLIGHT_CAPACITY

#: newest events a dumped flight window keeps in the run record (the full
#: ring still feeds in-process forensics; the record stays one JSONL line)
FLIGHT_DUMP_EVENTS = 2_000

#: stray protocol messages after which a run dumps its window even on a
#: PASS verdict — a stray storm is evidence worth keeping
STRAY_DUMP_THRESHOLD = 5

#: longest the driving loop blocks on the result pipes: the cadence of
#: status heartbeats and of noticing a worker that died without reporting
HEARTBEAT_S = 0.5


def _attach_flight(payload, telemetry):
    """Attach the recorder's tail window to a worker payload; a crash
    before the recorder exists adds none."""
    if telemetry is not None:
        payload["flight"] = telemetry.recorder.dump(limit=FLIGHT_DUMP_EVENTS)
    return payload


def _execute_schedule_run(schedule_dict, seed, run_limit, mem_per_node,
                          l2_size, coverage=False):
    """Run one (schedule, seed) to a payload dict; never raises.

    The run records the last :data:`FLIGHT_CAPACITY` events; a
    FAIL/HUNG/CRASHED verdict (or a stray-message storm) dumps the tail
    window into the payload.  With ``coverage=True`` the payload
    additionally carries the fuzzer's per-run coverage summary (feature
    strings + containment times).
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
        # untraced by the §9 contract) so a red verdict arrives with its
        # forensic story attached instead of needing a re-run to diagnose.
        telemetry = Telemetry(trace=False, flight=FLIGHT_CAPACITY)
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


def _batch_worker(conn, run_limit, mem_per_node, l2_size, coverage):
    """Long-lived worker loop: one task at a time until the None sentinel
    (or until the pool's end of ``conn`` is gone)."""
    import warnings
    warnings.simplefilter("ignore")   # skipped-injection warnings are data
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        run_index, schedule_dict, seed = task
        payload = _execute_schedule_run(
            schedule_dict, seed, run_limit, mem_per_node, l2_size,
            coverage=coverage)
        conn.send((run_index, payload))


class _Worker:
    """One pool slot: a subprocess plus the pipe it talks over."""

    def __init__(self, run_limit, mem_per_node, l2_size, coverage):
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_batch_worker,
            args=(child, run_limit, mem_per_node, l2_size, coverage),
            daemon=True)
        self.process.start()
        child.close()
        self.task = None          # (run_index, schedule_dict, seed)
        self.started = None


class BatchWorkerPool:
    """A fixed set of persistent workers with per-task watchdogs.

    Usage: :meth:`drive` with a task source and a result sink; a task that
    blows its wall-clock budget or kills its worker comes back as a HUNG
    or CRASHED payload and the worker slot is respawned.  ``close``
    always — the workers are daemons, but an orderly sentinel shutdown
    lets each finish its loop.
    """

    def __init__(self, jobs=1, timeout_s=300.0, run_limit=60_000_000_000,
                 mem_per_node=64 << 10, l2_size=8 << 10, coverage=False):
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.run_limit = run_limit
        self.mem_per_node = mem_per_node
        self.l2_size = l2_size
        self.coverage = coverage
        self.workers = [self._spawn() for _ in range(self.jobs)]

    def _spawn(self):
        return _Worker(self.run_limit, self.mem_per_node, self.l2_size,
                       self.coverage)

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

        The loop blocks on the result pipes, never sleeps: the wait is
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
        try:
            worker.conn.send(task)
        except OSError:
            pass    # the worker died idle; the death check answers

    def _collect(self, wait_s):
        """Collect finished runs; returns a list of (run_index, payload).

        Blocks up to ``wait_s`` on the busy workers' pipes, then reads
        every one that is ready.  A pipe that breaks mid-result (its
        worker died) yields nothing here.  Then the watchdog: any worker
        whose task exceeded the budget (or whose process died without
        reporting) yields a HUNG/CRASHED payload and a fresh worker,
        with a fresh pipe, takes its slot.
        """
        finished = []
        busy = {worker.conn: worker for worker in self.workers
                if worker.task is not None}
        for conn in wait(busy, wait_s):
            worker = busy[conn]
            try:
                run_index, payload = conn.recv()
            except (EOFError, OSError):
                # The worker is gone; reap it so the death check sees it.
                worker.process.join(HEARTBEAT_S)
                continue
            finished.append((run_index, payload))
            worker.task = None
            worker.started = None

        for index, worker in enumerate(self.workers):
            if worker.task is None:
                continue
            elapsed = time.monotonic() - worker.started
            if not worker.process.is_alive():
                payload = {
                    "status": RunStatus.CRASHED.value,
                    "error": ("batch worker died without reporting "
                              "(exitcode %s)" % worker.process.exitcode),
                    "elapsed_s": elapsed,
                }
            elif elapsed >= self.timeout_s:
                self._kill(worker)
                payload = {
                    "status": RunStatus.HUNG.value,
                    "error": ("watchdog: run exceeded %.0fs wall clock"
                              % self.timeout_s),
                    "elapsed_s": elapsed,
                }
            else:
                continue
            finished.append((worker.task[0], payload))
            worker.conn.close()     # nothing the retired worker sent is read
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
                try:
                    worker.conn.send(None)
                except OSError:
                    pass    # died since; the join below reaps it
        deadline = time.monotonic() + 5.0
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                self._kill(worker)
            worker.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False
