"""Differential property test: the event loop against a ``(time, seq)``
heap.

``HeapReference`` is the engine's earlier algorithm in miniature: one
heap of ``(time, seq, call)`` tuples, lazy deletion, and the same
compaction trigger.  Its pop order is the order the simulator promises,
(due time, schedule order), and its heap length is what ``heap_size``,
``pending_events`` and ``compactions`` have always reported.  Random
programs of schedules (some issued from inside callbacks), cancels of
pending, consumed and already-cancelled calls, ``step``, ``run(until)``
and ``run_until`` must leave both sides identical after every call.
"""

from heapq import heapify, heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


class HeapReference:
    def __init__(self, compact_min_cancelled=None):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.cancelled = 0
        self.compact_min = (Simulator.COMPACT_MIN_CANCELLED
                            if compact_min_cancelled is None
                            else compact_min_cancelled)
        self.events_executed = 0
        self.compactions = 0

    def schedule(self, delay, callback, *args):
        call = [callback, args, False]          # [.., .., dead]
        heappush(self.heap, (self.now + delay, self.seq, call))
        self.seq += 1
        return call

    def cancel(self, call):
        if call[2]:
            return
        call[2] = True
        self.cancelled += 1
        if (self.cancelled >= self.compact_min
                and self.cancelled * 2 > len(self.heap)):
            self.heap[:] = [entry for entry in self.heap if not entry[2][2]]
            heapify(self.heap)
            self.cancelled = 0
            self.compactions += 1

    def _loop(self, until=None, predicate=None, once=False):
        heap = self.heap
        while True:
            if predicate is not None and predicate():
                return True
            while heap and heap[0][2][2]:
                heappop(heap)
                self.cancelled -= 1
            if not heap or (until is not None and heap[0][0] > until):
                return False
            time, _seq, call = heappop(heap)
            call[2] = True
            self.now = time
            self.events_executed += 1
            call[0](*call[1])
            if once:
                return True

    def step(self):
        return self._loop(once=True)

    def run(self, until=None):
        self._loop(until=until)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until(self, predicate):
        if not self._loop(predicate=predicate):
            raise RuntimeError("drained")
        return self.now

    @property
    def pending_events(self):
        return len(self.heap) - self.cancelled

    @property
    def heap_size(self):
        return len(self.heap)


#: 1e-10 is its own due time at now=0 and lands on the current instant at
#: now=1e9, where it is below half an ulp
DELAYS = (0.0, 1.0, 5.0, 1e-10)

cancel = st.tuples(st.just("cancel"), st.integers(0, 63))
leaf = st.one_of(cancel, st.tuples(st.just("schedule"),
                                   st.sampled_from(DELAYS), st.just(())))
nested = st.one_of(leaf, st.tuples(st.just("schedule"),
                                   st.sampled_from(DELAYS),
                                   st.lists(leaf, max_size=3)))
operation = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS),
              st.lists(nested, max_size=3)),
    cancel,
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.sampled_from((None, 0.0, 1.0, 3.0, 5.0))),
    st.tuples(st.just("run_until"), st.integers(0, 4)))


def execute(sim, start, program):
    """Drive ``sim`` through ``program``; returns the call log and one
    observation of the simulator's counters after every operation."""
    log, handles, seen = [], [], []

    def perform(action):
        if action[0] == "schedule":
            _, delay, children = action
            handles.append(sim.schedule(delay, fire, len(handles), children))
        elif handles:
            sim.cancel(handles[action[1] % len(handles)])

    def fire(label, children):
        log.append((label, sim.now))
        for child in children:
            perform(child)

    sim.run(until=start)
    for op in program + [("run", None)]:
        kind = op[0]
        if kind == "step":
            result = sim.step()
        elif kind == "run":
            result = sim.run(None if op[1] is None else sim.now + op[1])
        elif kind == "run_until":
            target = len(log) + op[1]
            try:
                result = sim.run_until(lambda: len(log) >= target)
            except RuntimeError:
                result = "drained"
        else:
            result = perform(op)
        seen.append((kind, result, sim.now, sim.events_executed,
                     sim.pending_events, sim.heap_size, sim.compactions))
    return log, seen


@given(st.lists(operation, max_size=40), st.sampled_from((0.0, 1e9)),
       st.sampled_from((0, 2, None)))
@settings(max_examples=300, deadline=None)
def test_event_loop_matches_time_seq_heap(program, start, compact_min):
    expected = execute(HeapReference(compact_min), start, program)
    actual = execute(Simulator(compact_min_cancelled=compact_min),
                     start, program)
    assert actual == expected
