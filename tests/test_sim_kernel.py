"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AnyOf, Channel, Event, Interrupt, Simulator
from repro.sim.process import all_finished


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(30, log.append, "c")
    sim.schedule(10, log.append, "a")
    sim.schedule(20, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 30


def test_schedule_ties_break_by_insertion_order():
    sim = Simulator()
    log = []
    sim.schedule(10, log.append, "first")
    sim.schedule(10, log.append, "second")
    sim.run()
    assert log == ["first", "second"]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_cancelled_call_does_not_run():
    sim = Simulator()
    log = []
    handle = sim.schedule(10, log.append, "x")
    handle.cancel()
    sim.run()
    assert log == []


def test_run_until_time_bound():
    sim = Simulator()
    log = []
    sim.schedule(10, log.append, "a")
    sim.schedule(100, log.append, "b")
    sim.run(until=50)
    assert log == ["a"]
    assert sim.now == 50


def test_process_timeout_advances_clock():
    sim = Simulator()
    times = []

    def proc():
        yield 5
        times.append(sim.now)
        yield 7.5
        times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [5.0, 12.5]


def test_process_result_captured():
    sim = Simulator()

    def proc():
        yield 1
        return 42

    process = sim.spawn(proc())
    sim.run()
    assert process.result == 42
    assert not process.alive


def test_process_waits_for_event():
    sim = Simulator()
    event = Event(sim)
    seen = []

    def waiter():
        value = yield event
        seen.append((sim.now, value))

    sim.spawn(waiter())
    sim.schedule(25, event.trigger, "payload")
    sim.run()
    assert seen == [(25.0, "payload")]


def test_pretriggered_event_resumes_immediately():
    sim = Simulator()
    event = Event(sim)
    event.trigger("early")
    seen = []

    def waiter():
        value = yield event
        seen.append(value)

    sim.spawn(waiter())
    sim.run()
    assert seen == ["early"]


def test_event_double_trigger_raises():
    sim = Simulator()
    event = Event(sim)
    event.trigger()
    with pytest.raises(RuntimeError):
        event.trigger()


def test_process_joins_process():
    sim = Simulator()
    order = []

    def child():
        yield 10
        order.append("child-done")
        return "child-result"

    def parent():
        child_proc = sim.spawn(child())
        result = yield child_proc
        order.append(("parent-saw", result, sim.now))

    sim.spawn(parent())
    sim.run()
    assert order == ["child-done", ("parent-saw", "child-result", 10.0)]


def test_any_of_resumes_on_first():
    sim = Simulator()
    events = [Event(sim) for _ in range(3)]
    seen = []

    def waiter():
        index, value = yield AnyOf(events)
        seen.append((sim.now, index, value))

    sim.spawn(waiter())
    sim.schedule(5, events[2].trigger, "late-winner")
    sim.schedule(9, events[0].trigger, "loser")
    sim.run()
    assert seen == [(5.0, 2, "late-winner")]


def test_interrupt_throws_into_generator():
    sim = Simulator()
    seen = []

    def victim():
        try:
            yield 1000
        except Interrupt as interrupt:
            seen.append((sim.now, interrupt.cause))

    process = sim.spawn(victim())
    sim.schedule(40, process.interrupt, "nmi")
    sim.run()
    assert seen == [(40.0, "nmi")]


def test_interrupt_cancels_pending_timeout():
    sim = Simulator()
    seen = []

    def victim():
        try:
            yield 1000
        except Interrupt:
            seen.append(sim.now)
            yield 5
            seen.append(sim.now)

    process = sim.spawn(victim())
    sim.schedule(10, process.interrupt, None)
    sim.run()
    assert seen == [10.0, 15.0]
    assert sim.now == 15.0   # original 1000ns timeout did not fire


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield 1

    process = sim.spawn(quick())
    sim.run()
    process.interrupt("too-late")   # must not raise
    sim.run()


def test_unhandled_interrupt_kills_process_quietly():
    sim = Simulator()

    def victim():
        yield 1000

    process = sim.spawn(victim())
    sim.schedule(5, process.interrupt, "boom")
    sim.run()
    assert not process.alive
    assert isinstance(process.exception, Interrupt)


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield 1
        raise ValueError("model bug")

    sim.spawn(bad())
    with pytest.raises(ValueError):
        sim.run()


def test_kill_stops_process():
    sim = Simulator()
    ran = []

    def victim():
        yield 10
        ran.append("should not happen")

    process = sim.spawn(victim())
    sim.schedule(5, process.kill)
    sim.run()
    assert ran == []
    assert not process.alive


def test_channel_fifo_order():
    sim = Simulator()
    channel = Channel(sim)
    seen = []

    def consumer():
        for _ in range(3):
            item = yield channel.get()
            seen.append(item)

    sim.spawn(consumer())
    sim.schedule(1, channel.put, "a")
    sim.schedule(2, channel.put, "b")
    sim.schedule(3, channel.put, "c")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_channel_get_before_put_blocks():
    sim = Simulator()
    channel = Channel(sim)
    seen = []

    def consumer():
        item = yield channel.get()
        seen.append((sim.now, item))

    sim.spawn(consumer())
    sim.schedule(50, channel.put, "x")
    sim.run()
    assert seen == [(50.0, "x")]


def test_channel_try_get():
    sim = Simulator()
    channel = Channel(sim)
    assert channel.try_get() is None
    channel.put(1)
    channel.put(2)
    assert channel.try_get() == 1
    assert len(channel) == 1


def test_channel_clear_reports_dropped():
    sim = Simulator()
    channel = Channel(sim)
    channel.put("a")
    channel.put("b")
    assert channel.clear() == ["a", "b"]
    assert len(channel) == 0


def test_channel_watch_fires_on_put():
    sim = Simulator()
    channel = Channel(sim)
    seen = []

    def watcher():
        yield channel.watch()
        seen.append(sim.now)

    sim.spawn(watcher())
    sim.schedule(7, channel.put, "data")
    sim.run()
    assert seen == [7.0]
    assert len(channel) == 1   # watch does not consume


def test_two_channel_ping_pong():
    sim = Simulator()
    a_to_b = Channel(sim)
    b_to_a = Channel(sim)
    transcript = []

    def side_a():
        a_to_b.put("ping-0")
        for round_no in range(1, 3):
            msg = yield b_to_a.get()
            transcript.append(("a", sim.now, msg))
            yield 10
            a_to_b.put("ping-%d" % round_no)

    def side_b():
        for _ in range(3):
            msg = yield a_to_b.get()
            transcript.append(("b", sim.now, msg))
            yield 5
            b_to_a.put("pong for " + msg)

    sim.spawn(side_a())
    sim.spawn(side_b())
    sim.run()
    b_msgs = [entry[2] for entry in transcript if entry[0] == "b"]
    assert b_msgs == ["ping-0", "ping-1", "ping-2"]


def test_rng_determinism():
    values_1 = Simulator(seed=123).rng.random()
    values_2 = Simulator(seed=123).rng.random()
    assert values_1 == values_2


def test_schedule_at_clamps_epsilon_negative_delay():
    # A caller computing an absolute time from `now` through a chain of
    # float additions can come out a few ulps below `now`; schedule_at
    # must clamp that to "now" instead of raising.
    sim = Simulator()
    sim.schedule(0.1 + 0.2, lambda: None)   # 0.30000000000000004
    sim.run()
    log = []
    target = sim.now - 1e-13
    sim.schedule_at(target, log.append, "clamped")
    sim.run()
    assert log == ["clamped"]


def test_schedule_at_rejects_genuinely_past_time():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(50, lambda: None)


def test_pending_events_excludes_cancelled():
    sim = Simulator(compact_min_cancelled=10**9)   # compaction off
    handles = [sim.schedule(10 + i, lambda: None) for i in range(8)]
    for handle in handles[:5]:
        handle.cancel()
    assert sim.pending_events == 3
    assert sim.heap_size == 8


def test_cancel_storm_keeps_heap_bounded():
    # MAGIC's per-op watchdog pattern: arm a long-deadline timer, cancel
    # it almost immediately.  Lazy deletion alone would grow the heap to
    # ~`ops` entries; compaction must keep it within a small multiple of
    # the live count.
    sim = Simulator()
    ops = 20_000
    peak = {"heap": 0}

    def stream():
        for _ in range(ops):
            timer = sim.schedule(1_000_000.0, pytest.fail)
            yield 10.0
            timer.cancel()
            peak["heap"] = max(peak["heap"], sim.heap_size)

    sim.spawn(stream())
    sim.run()
    assert peak["heap"] < 256
    assert sim.compactions > 0
    assert sim.events_executed >= ops


def test_cancel_after_fire_does_not_corrupt_accounting():
    # Cancelling a call that already ran (the common waker/canceller
    # race) must not skew the dead-entry count that drives compaction.
    sim = Simulator()
    handle = sim.schedule(5, lambda: None)
    sim.run()
    handle.cancel()
    handle.cancel()
    assert sim._cancelled == 0
    assert sim.pending_events == 0


def _compaction_workload(sim, log):
    """Deterministic arm/cancel/sleep mix driven by the sim's own RNG."""

    def worker(worker_id):
        armed = []
        for step_no in range(300):
            roll = sim.rng.random()
            if roll < 0.45:
                armed.append(sim.schedule(
                    50_000.0 + step_no, log.append,
                    ("fired", worker_id, step_no)))
            elif armed and roll < 0.85:
                armed.pop(0).cancel()
            yield 1.0 + (roll * 5.0)
            log.append(("tick", worker_id, step_no, sim.now))

    for worker_id in range(6):
        sim.spawn(worker(worker_id), name="w%d" % worker_id)


def _drive_sliced(sim):
    # Bounded slices while the workers are active, then drain: the final
    # clock is the last event's time, as for the other two drivers.
    for _ in range(40):
        sim.run(until=sim.now + 37.0)
    sim.run()


def _drive_predicate(sim):
    sim.run_until(lambda: sim.pending_events == 0)


def test_compaction_preserves_event_order_bit_identically():
    # The determinism directed test: the same seed must produce the same
    # event trace whether the heap compacts aggressively, lazily, or
    # never, and whichever entry point drives the one event loop.
    # Compaction may only change *when* dead entries are reclaimed, never
    # what executes or at what virtual time — a loop that kept popping
    # from a heap list that a callback's compaction replaced would
    # replay or lose events here.
    traces = []
    compactions = {}
    for drive in (Simulator.run, _drive_sliced, _drive_predicate):
        for compact_min in (1, 64, 10**9):
            sim = Simulator(seed=42, compact_min_cancelled=compact_min)
            log = []
            _compaction_workload(sim, log)
            drive(sim)
            traces.append((log, sim.now, sim.events_executed))
            compactions[drive, compact_min] = sim.compactions
    assert len(traces) == 9
    assert all(trace == traces[0] for trace in traces[1:])
    # The aggressive config really did compact; the disabled one never.
    for drive in (Simulator.run, _drive_sliced, _drive_predicate):
        assert compactions[drive, 1] > 0
        assert compactions[drive, 10**9] == 0


def test_channel_watcher_reregister_during_callback_not_dropped():
    # A watcher that re-registers from its wakeup must see the next put
    # exactly once (the pre-snapshot code could drop or double-fire it).
    sim = Simulator()
    channel = Channel(sim)
    wakeups = []

    def watcher():
        while len(wakeups) < 3:
            yield channel.watch()
            wakeups.append(sim.now)

    sim.spawn(watcher())
    sim.schedule(10, channel.put, "a")
    sim.schedule(20, channel.put, "b")
    sim.schedule(30, channel.put, "c")
    sim.run()
    assert wakeups == [10.0, 20.0, 30.0]


def test_channel_put_discards_stale_watchers():
    # A watch event triggered out-of-band must not be re-fired by put.
    sim = Simulator()
    channel = Channel(sim)
    stale = channel.watch()
    stale.trigger("external")
    fresh = channel.watch()
    channel.put("item")
    sim.run()
    assert fresh.triggered
    assert fresh.value is channel
    assert channel._watchers == []


def test_channel_many_watchers_all_fire_once():
    sim = Simulator()
    channel = Channel(sim)
    fired = []
    for index in range(5):
        channel.watch().subscribe(
            lambda value, index=index: fired.append(index))
    channel.put("x")
    sim.run()
    assert sorted(fired) == [0, 1, 2, 3, 4]
    assert channel._watchers == []


def test_run_until_predicate():
    sim = Simulator()
    state = {"done": False}

    def proc():
        yield 100
        state["done"] = True
        yield 100

    sim.spawn(proc())
    sim.run_until(lambda: state["done"], limit=1_000)
    assert sim.now == 100.0


def test_run_until_limit_and_drained_heap():
    sim = Simulator()

    def ticker():
        while True:
            yield 100

    sim.spawn(ticker())
    with pytest.raises(TimeoutError):
        sim.run_until(lambda: False, limit=1_000)
    # The limit is tested before each event, so the clock stops on the
    # first event past it.
    assert sim.now == 1_100.0

    drained = Simulator()
    drained.schedule(5, lambda: None)
    with pytest.raises(RuntimeError):
        drained.run_until(lambda: False)
    assert drained.now == 5.0
    # A predicate that already holds runs nothing.
    assert drained.run_until(lambda: True) == 5.0


def test_step_on_empty_or_dead_heap_returns_false():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(5, lambda: None).cancel()
    assert sim.step() is False
    assert sim.heap_size == 0
    fired = []
    sim.schedule(5, fired.append, "a")
    sim.schedule(9, fired.append, "b")
    assert sim.step() is True
    assert (fired, sim.now, sim.events_executed) == (["a"], 5.0, 1)


def test_interrupt_beats_same_timestamp_event_resume():
    # The event fires and its waiter's resume is already on the heap when
    # the process is interrupted at the same timestamp: only the
    # Interrupt may reach the generator (the race _Waiter.live exists
    # for; the waiter, not _step, clears _pending_wait on a normal
    # resume).
    sim = Simulator()
    event = Event(sim)
    seen = []

    def waiter():
        try:
            value = yield event
            seen.append(("value", value))
        except Interrupt as interrupt:
            seen.append(("interrupt", interrupt.cause))
        seen.append(("slept", (yield 10)))

    proc = sim.spawn(waiter())
    sim.run(until=50)

    def fire_then_interrupt():
        event.trigger("payload")
        proc.interrupt("nmi")

    sim.schedule(0, fire_then_interrupt)
    sim.run()
    assert seen == [("interrupt", "nmi"), ("slept", None)]
    assert not proc.alive and sim.now == 60.0

    # Without the interrupt the same wait resumes with the value and
    # leaves no armed wait behind.
    sim = Simulator()
    event = Event(sim)
    seen = []
    proc = sim.spawn(waiter())
    sim.schedule(50, event.trigger, "payload")
    sim.run(until=55)
    assert seen == [("value", "payload")]
    assert proc._pending_wait is None


def test_all_finished_predicate():
    sim = Simulator()
    assert all_finished([])() is True

    def sleeper(delay):
        yield delay

    # Finishing order is neither list order nor its reverse.
    procs = [sim.spawn(sleeper(delay)) for delay in (30, 10, 40, 20)]
    finished = all_finished(procs)
    while sim.step():
        assert finished() == all(not proc.alive for proc in procs)
    assert finished() is True          # dead stays dead
    sim.run_until(all_finished(procs))
    assert sim.now == 40.0


def test_all_finished_agrees_with_rescan_on_seeded_run():
    sim = Simulator(seed=7)
    procs = []
    log = []

    def worker(worker_id):
        for _ in range(sim.rng.randrange(1, 40)):
            yield 1.0 + sim.rng.random() * 9.0
        log.append(worker_id)

    for worker_id in range(12):
        procs.append(sim.spawn(worker(worker_id)))
    finished = all_finished(iter(procs))
    while sim.step():
        assert finished() == all(not proc.alive for proc in procs)
    assert finished() and sorted(log) == list(range(12))
    assert log != sorted(log)           # they really finished out of order
