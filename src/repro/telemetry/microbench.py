"""Sim-core micro-benchmarks (``repro.cli bench --micro``).

Three synthetic workloads exercise the simulation kernel's hot paths in
isolation — no machine model, so the numbers measure the event loop, not
the protocol:

* ``timeout_stream`` — the MAGIC pattern that motivated lazy-deletion
  compaction: every "memory op" arms a long-deadline timeout timer and
  cancels it a few hundred simulated nanoseconds later, so dead timers
  dominate the heap unless the engine reclaims them (paper §4.2 arms one
  such timer per outstanding memory operation).
* ``router_saturation`` — a put/watch/get pipeline: every
  ``Channel.put`` must wake a fan-out of one-shot watchers without
  rebuilding the watcher list.  The name is historical — it measures
  the ``Channel`` watcher lane (MAGIC, recovery comm); routers and NI
  pumps are scheduled callbacks with no process, channel or watcher
  (DESIGN.md §12), so this number says nothing about how they run.
* ``barrier_storm`` — recovery-style barrier rounds: many processes
  arrive on per-round events, a coordinator waits ``AllOf`` and releases
  everyone through a broadcast event, stressing the subscribe/trigger
  wait lanes.

Each bench runs ``repeats`` times and keeps the best throughput (wall
noise only ever slows a run down).  The suite emits the
``BENCH_simcore.json`` payload; :func:`check_against_baseline` is the CI
perf-regression gate — it fails any bench whose events/sec falls more
than ``max_regression`` below the committed baseline.

The workloads are fully deterministic for a given seed: the same event
stream runs whether or not the engine compacts, which is what lets the
determinism directed test compare the two configurations bit-for-bit.
"""

import gc
import json
import time

from repro.sim import AllOf, Channel, Event, Simulator

#: benchmark names in reporting order
MICRO_BENCHES = ("timeout_stream", "router_saturation", "barrier_storm")

#: default repeats; best-of keeps scheduler noise out of the gate
DEFAULT_REPEATS = 3


def _noop():
    """Armed timeout that must never fire (ops complete long before it)."""


def _timeout_stream(sim, nodes, ops, timers_per_op, timeout_ns, stats):
    """One process per node; per op: arm the per-operation watchdogs
    (memory-op timeout plus NAK-retry counters, like MAGIC does for every
    outstanding request), work, cancel them all on completion."""

    def node(node_id):
        for op in range(ops):
            timers = [sim.schedule(timeout_ns + 100.0 * extra, _noop)
                      for extra in range(timers_per_op)]
            yield 100.0 + (node_id + op) % 7
            for timer in timers:
                timer.cancel()
        stats["done"] += 1

    for node_id in range(nodes):
        sim.spawn(node(node_id), name="stream%d" % node_id)


def _router_saturation(sim, stages, messages, fanout, stats):
    """Pipeline of channels with watch-multiplexed forwarders, plus a
    fan-out of re-registering monitor watchers on every channel."""
    channels = [Channel(sim, name="pipe%d" % i) for i in range(stages + 1)]

    def producer():
        for msg in range(messages):
            channels[0].put(msg)
            yield 50.0

    def forwarder(index):
        inbox, outbox = channels[index], channels[index + 1]
        moved = 0
        while moved < messages:
            item = inbox.try_get()
            if item is None:
                yield inbox.watch()
                continue
            yield 20.0
            outbox.put(item)
            moved += 1

    def sink():
        for _ in range(messages):
            yield channels[-1].get()
            stats["delivered"] += 1

    def monitor(channel):
        while stats["delivered"] < messages:
            yield channel.watch()
            stats["wakeups"] += 1

    sim.spawn(producer(), name="producer")
    for index in range(stages):
        sim.spawn(forwarder(index), name="fwd%d" % index)
    sim.spawn(sink(), name="sink")
    for channel in channels:
        for _ in range(fanout):
            sim.spawn(monitor(channel), name="%s.mon" % channel.name)


def _barrier_storm(sim, participants, rounds, stats):
    """Recovery-barrier storm: arrive events + AllOf + broadcast release."""
    arrivals = [[Event(sim, name="arrive%d.%d" % (r, i))
                 for i in range(participants)] for r in range(rounds)]
    releases = [Event(sim, name="release%d" % r) for r in range(rounds)]

    def participant(index):
        for r in range(rounds):
            yield 1.0 + (index + r) % 5
            arrivals[r][index].trigger(index)
            yield releases[r]

    def coordinator():
        for r in range(rounds):
            yield AllOf(arrivals[r])
            releases[r].trigger(r)
            stats["rounds"] += 1

    for index in range(participants):
        sim.spawn(participant(index), name="part%d" % index)
    sim.spawn(coordinator(), name="coordinator")


def _scaled(value, scale):
    return max(1, int(round(value * scale)))


def run_micro_bench(name, seed=0, scale=1.0, compact_min_cancelled=None,
                    profiler=None):
    """Run one micro-bench once; returns its JSON-friendly result dict.

    ``scale`` multiplies the workload size (tests use a small fraction);
    ``compact_min_cancelled`` is forwarded to :class:`Simulator` so the
    determinism test can force compaction on or off.  ``profiler``
    attaches a :class:`~repro.telemetry.profiler.SimProfiler` to the
    dispatch loop — use only on a *separate* profiled pass, never on the
    throughput measurement (timing every dispatch costs real wall time).
    """
    sim = Simulator(seed=seed, compact_min_cancelled=compact_min_cancelled)
    if profiler is not None:
        sim.profiler = profiler
    peak = {"heap": 0, "live": 0}

    def probe():
        peak["heap"] = max(peak["heap"], sim.heap_size)
        peak["live"] = max(peak["live"], sim.pending_events)
        if sim.pending_events > 1:   # stop probing once the run drains
            sim.schedule(500.0, probe)

    if name == "timeout_stream":
        stats = {"done": 0}
        params = {"nodes": _scaled(80, scale), "ops": _scaled(1250, scale),
                  "timers_per_op": 4, "timeout_ns": 1_000_000.0}
        _timeout_stream(sim, params["nodes"], params["ops"],
                        params["timers_per_op"], params["timeout_ns"],
                        stats)
    elif name == "router_saturation":
        stats = {"delivered": 0, "wakeups": 0}
        params = {"stages": 8, "messages": _scaled(1500, scale), "fanout": 4}
        _router_saturation(sim, params["stages"], params["messages"],
                           params["fanout"], stats)
    elif name == "barrier_storm":
        stats = {"rounds": 0}
        params = {"participants": _scaled(96, scale),
                  "rounds": _scaled(150, scale)}
        _barrier_storm(sim, params["participants"], params["rounds"], stats)
    else:
        raise ValueError("unknown micro-bench %r (have: %s)"
                         % (name, ", ".join(MICRO_BENCHES)))

    sim.schedule(0.0, probe)
    # Start each measurement from a clean allocator/GC state so a heavy
    # bench cannot skew the ones that run after it in the same process.
    gc.collect()
    wall_start = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - wall_start

    return {
        "name": name,
        "params": params,
        "stats": stats,
        "events_executed": sim.events_executed,
        "sim_ns": sim.now,
        "wall_s": round(wall_s, 6),
        "events_per_sec": (round(sim.events_executed / wall_s)
                           if wall_s > 0 else None),
        "max_heap": peak["heap"],
        "max_live_pending": peak["live"],
        "compactions": sim.compactions,
    }


def run_micro_suite(seed=0, repeats=DEFAULT_REPEATS, scale=1.0,
                    progress=None):
    """Run every micro-bench ``repeats`` times; best throughput wins.

    Returns the ``BENCH_simcore.json`` payload.
    """
    results = []
    for name in MICRO_BENCHES:
        best = None
        for _ in range(max(1, repeats)):
            result = run_micro_bench(name, seed=seed, scale=scale)
            if (best is None
                    or (result["events_per_sec"] or 0)
                    > (best["events_per_sec"] or 0)):
                best = result
        best["repeats"] = max(1, repeats)
        results.append(best)
        if progress is not None:
            progress(best)
    return {
        "version": 1,
        "benchmark": "simcore-micro",
        "seed": seed,
        "scale": scale,
        "results": results,
        "events_per_sec": {r["name"]: r["events_per_sec"] for r in results},
    }


def run_profiled_suite(seed=0, scale=1.0):
    """One profiled pass over every micro-bench; returns the merged
    :class:`~repro.telemetry.profiler.SimProfiler`.

    Kept separate from :func:`run_micro_suite` on purpose: the profiler's
    per-dispatch ``perf_counter`` pair is real overhead, so attributing
    wall time and gating throughput must never share a run.
    """
    from repro.telemetry.profiler import SimProfiler
    profiler = SimProfiler()
    for name in MICRO_BENCHES:
        run_micro_bench(name, seed=seed, scale=scale, profiler=profiler)
    return profiler


def run_flight_overhead(seed=0, repeats=DEFAULT_REPEATS, num_nodes=8,
                        capacity=None):
    """Measure the always-on flight recorder's cost on a machine workload.

    The micro-benches have no emission sites (they exercise the bare event
    loop), so the honest measurement is a full machine recovery run —
    :func:`~repro.telemetry.scalability.run_scalability_point` — paired:
    telemetry off versus ``Telemetry(trace=False, flight=N)``.  Best of
    ``repeats`` per arm (wall noise only ever slows a run down); overhead
    is the throughput drop of the flight arm.  Returns a JSON-friendly
    dict with both arms' events/sec and the ``overhead`` fraction.
    """
    from repro.telemetry.flight import DEFAULT_CAPACITY
    from repro.telemetry.scalability import run_scalability_point
    from repro.telemetry.trace import Telemetry
    capacity = DEFAULT_CAPACITY if capacity is None else capacity

    def best_events_per_sec(flight):
        best = 0
        for _ in range(max(1, repeats)):
            telemetry = (Telemetry(trace=False, flight=capacity)
                         if flight else None)
            gc.collect()
            result = run_scalability_point(num_nodes, seed=seed,
                                           telemetry=telemetry)
            best = max(best, result["sim"]["events_per_sec"] or 0)
        return best

    off = best_events_per_sec(flight=False)
    on = best_events_per_sec(flight=True)
    overhead = max(0.0, 1.0 - on / off) if off else None
    return {
        "num_nodes": num_nodes,
        "capacity": capacity,
        "repeats": max(1, repeats),
        "events_per_sec_off": off,
        "events_per_sec_flight": on,
        "overhead": round(overhead, 4) if overhead is not None else None,
    }


def check_against_baseline(payload, baseline, max_regression=0.30):
    """The CI gate: list of failure strings, empty when the run is ok.

    A bench fails when its events/sec drops more than ``max_regression``
    below the committed baseline figure.  Benches the baseline does not
    know about are ignored (so adding a bench never blocks the PR that
    adds it); a baseline bench missing from the run fails loudly.
    """
    failures = []
    reference = baseline.get("events_per_sec", {})
    measured = payload.get("events_per_sec", {})
    for name in sorted(reference):
        floor = reference[name] * (1.0 - max_regression)
        got = measured.get(name)
        if got is None:
            failures.append("%s: missing from the bench run "
                            "(baseline %d ev/s)" % (name, reference[name]))
        elif got < floor:
            failures.append(
                "%s: %d ev/s is %.0f%% below baseline %d ev/s "
                "(floor %d)" % (name, got,
                                100.0 * (1.0 - got / reference[name]),
                                reference[name], floor))
    return failures


def baseline_from_payload(payload, margin=0.5):
    """Derive a committed-baseline document from a suite run.

    ``margin`` scales the recorded figures down so the 30%% gate tracks
    real regressions rather than differences between the machine that
    recorded the baseline and the CI runner.
    """
    return {
        "version": 1,
        "benchmark": "simcore-micro",
        "margin": margin,
        "events_per_sec": {
            name: int(value * margin)
            for name, value in sorted(payload["events_per_sec"].items())
            if value},
    }


def load_baseline(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def micro_table(payload):
    """Human-readable table of a suite payload."""
    from repro.analysis.tables import format_table

    rows = []
    for result in payload["results"]:
        rows.append((
            result["name"],
            result["events_executed"],
            "%.0f" % (result["sim_ns"] / 1e3),
            "%.4f" % result["wall_s"],
            result["events_per_sec"] or "-",
            result["max_heap"],
            result["max_live_pending"],
            result["compactions"],
        ))
    repeats = payload["results"][0]["repeats"] if payload["results"] else 1
    return format_table(
        "Sim-core micro-benchmarks (best of %d)" % repeats,
        ["bench", "events", "sim [us]", "wall [s]", "events/s",
         "max heap", "max live", "compactions"],
        rows)
