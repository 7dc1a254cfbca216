"""The benchmark's one command.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one run of one workload, the form BENCHMARK.json's
  ``command`` is driven in.  Prints every metric by name and unit, then
  one JSON object as the last line.
* ``python -m benchmarks.e2e.run [--seed N] [--out FILE] [--smoke]`` —
  the whole suite: each workload in a fresh subprocess with tracing off,
  then again traced at reduced op count, digests cross-checked.

README.md beside this file defines the metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __name__ == "__main__" and str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))     # run as a script: find the package

from benchmarks.e2e import layers, workloads   # noqa: E402

#: scratch space for campaign records and suite detail files — inside the
#: checkout, ignored by git, removed when the run ends
WORK_DIR = HERE / ".work"

#: fresh-process set-ups timed per untraced run; setup_s is their median
SETUP_PROBES = 5


#: the campaign.* layer metrics (they come from the untraced pass's
#: records; zero off the campaign workload)
CAMPAIGN_UNITS = {
    "campaign.worker_run_s": "s",
    "campaign.worker_utilization": "ratio",
    "campaign.harness_overhead_s": "s",
    "campaign.record_bytes_per_run": "B",
}


@contextlib.contextmanager
def scratch_dir(prefix):
    """A directory under ``WORK_DIR`` that is gone when the block ends."""
    WORK_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass                       # another run is using it


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(
        workloads.make_workloads()), help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=workloads.RUN_SECONDS,
                        help="length of the timed section the op counts "
                             "are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, one set-up probe (<=20 s for "
                             "the whole suite)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite only: untraced runs per workload")
    parser.add_argument("--out", help="write the detail JSON here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ one run

def set_up(workload, args, tap):
    """What precedes a timed section: plan the ops, run one untimed op.
    (The imports above are the third part of set-up.)"""
    workload.plan(args.seed, workload.count(args.seconds, smoke=args.smoke))
    workload.run_op(workload.warmup_op(args.seed), tap)


def probe_setup_s(args):
    """Host seconds of one set-up in a fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    started = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def peak_rss_mb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def op_digest(result):
    return hashlib.sha256(json.dumps(
        result.stats, sort_keys=True, separators=(",", ":"),
        default=str).encode("utf-8")).hexdigest()


def end_to_end_metrics(workload, results, timed_s, setup_samples):
    host = [result.host_s for result in results]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(results) / timed_s, "1/s"),
        "op_s.p50": (statistics.median(host), "s"),
        "op_s.p75": (workloads.percentile(host, 0.75), "s"),
        "events_per_s": (
            sum(result.events for result in results) / timed_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_recovery_ms": (workload.recovery_ms(results), "ms"),
    }


def untraced_run(workload, args, tap, workdir):
    """``--trace 0``: the end-to-end metrics of one run."""
    probes = 1 if args.smoke else SETUP_PROBES
    setup_samples = [probe_setup_s(args) for _ in range(probes)]
    set_up(workload, args, tap)
    results, timed_s, _ = workload.run_untraced(
        args.seed, workload.count(args.seconds, smoke=args.smoke), tap,
        workdir, passes=1 if args.smoke else None)
    return results, end_to_end_metrics(workload, results, timed_s,
                                       setup_samples)


def traced_run(workload, args, tap, workdir):
    """``--trace 1``: the same ops untraced, then traced; the per-layer
    metrics, the spans, and whether both ways simulated the same thing."""
    set_up(workload, args, tap)
    count = workload.count(args.seconds, traced=True, smoke=args.smoke)
    reference, _, campaign = workload.run_untraced(
        args.seed, count, tap, workdir, passes=1)
    tracer = layers.Tracer(tap).install()
    try:
        results = workloads.run_ops(
            workload, workload.plan(args.seed, count), tap, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for name, unit in CAMPAIGN_UNITS.items():
        metrics[name] = ((campaign or {}).get(name, 0.0), unit)
    metrics["trace.overhead_ratio"] = (
        sum(result.host_s for result in results)
        / sum(result.host_s for result in reference), "ratio")
    # The profiler and the wrappers must leave the simulation
    # bit-identical: same ops, same simulated statistics.
    same = ([op_digest(result) for result in reference]
            == [op_digest(result) for result in results])
    return results, metrics, tracer.span_dicts(), same


def run_workload(args):
    """One run of one workload; returns the process exit code."""
    warnings.simplefilter("ignore")   # skipped-injection warnings are data
    workload = workloads.make_workloads(args.smoke)[args.workload]
    tap = layers.MachineTap().install()
    if args.setup_probe:
        set_up(workload, args, tap)
        return 0

    try:
        with scratch_dir(args.workload + "-") as workdir:
            if args.trace:
                results, metrics, spans, same = traced_run(
                    workload, args, tap, workdir)
            else:
                results, metrics = untraced_run(workload, args, tap, workdir)
                spans, same = [], True
    finally:
        tap.uninstall()

    failed = sum(1 for result in results if result.failed)
    aborted = sum(1 for result in results if result.aborted)
    digests = [op_digest(result) for result in results]
    sim_digest = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()

    print("%s seed=%d trace=%d: %d ops" % (
        args.workload, args.seed, args.trace, len(results)))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-34s %16.6f %s" % (name, value, unit))
    print("  %-34s %16.6f ratio (%d of %d ops)" % (
        "fail_share", failed / len(results), failed, len(results)))
    print("  %-34s %s" % ("sim_digest", sim_digest))
    if aborted:
        print("ABORTED: %d ops never reached a verdict" % aborted)
    if not same:
        print("MISMATCH: traced ops differ from the same ops untraced")

    line = {
        "correct": failed == 0 and same,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        detail = dict(line, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      smoke=args.smoke, sim_digest=sim_digest,
                      op_digests=digests, spans=spans)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, sort_keys=True)
            handle.write("\n")
    print(json.dumps(line, sort_keys=True))
    return 1 if aborted or not same else 0


# ------------------------------------------------------------------ the suite

def run_child(args, name, trace, out_path):
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(trace), "--out", out_path]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    if os.path.exists(out_path):
        os.remove(out_path)            # never read an earlier run's detail
    code = subprocess.run(command).returncode
    with open(out_path, encoding="utf-8") as handle:
        return code, json.load(handle)


def run_suite(args):
    """Every workload untraced (``--repeats`` times) and traced, each in
    its own interpreter; returns the process exit code."""
    from repro.telemetry.scalability import bench_meta
    spec = benchmark_spec()
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    payload = {
        "meta": dict(bench_meta(), nproc=workloads.cpu_count(),
                     python=platform.python_version(), seed=args.seed,
                     seconds=args.seconds, smoke=args.smoke),
        "workloads": {},
    }
    exit_code = 0
    with scratch_dir("suite-") as scratch:
        for name in why:
            out_path = os.path.join(scratch, name + ".json")
            runs = []
            for _ in range(args.repeats):
                code, detail = run_child(args, name, 0, out_path)
                exit_code = exit_code or code
                runs.append(detail)
            code, traced = run_child(args, name, 1, out_path)
            exit_code = exit_code or code
            digests = {run["sim_digest"] for run in runs}
            shared = len(traced["op_digests"])
            if len(digests) != 1 or \
                    traced["op_digests"] != runs[0]["op_digests"][:shared]:
                print("MISMATCH: %s runs disagree on simulated statistics"
                      % name)
                exit_code = exit_code or 1
            payload["workloads"][name] = {
                "why": why[name], "sim_digest": runs[0]["sim_digest"],
                "runs": runs, "traced": traced}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("suite %s" % ("ok" if exit_code == 0 else "FAILED"))
    return exit_code


def main(argv=None):
    args = parse_args(argv)
    return run_workload(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
