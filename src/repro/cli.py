"""Command-line interface: run paper experiments without writing code.

Each ``cmd_*`` wires its arguments to the subsystem that does the work.

Usage::

    python -m repro.cli validate --fault node_failure --target 3
    python -m repro.cli validate --fault node_failure --target 3 \\
        --trace trace.json
    python -m repro.cli validate --schedule '<record schedule JSON>' \\
        --seed <record seed>
    python -m repro.cli endtoend --fault infinite_loop --target 5
    python -m repro.cli bench --sizes 4 8 16 32 --topology mesh
    python -m repro.cli campaign --runs 50 --seed 7 \\
        --schedule fault-during-recovery
"""

import argparse
import json
import os
import time

from repro.core.config import MachineConfig
from repro.core.experiment import run_schedule_experiment
from repro.faults.models import LINK_FAULT_TYPES, FaultSpec, FaultType
from repro.telemetry.scalability import DEFAULT_SIZES


def _fault_from_args(args):
    fault_type = FaultType(args.fault or FaultType.NODE_FAILURE.value)
    if fault_type in LINK_FAULT_TYPES:
        if args.target2 is None:
            raise SystemExit("%s needs --target and --target2"
                             % fault_type.value)
        return FaultSpec(fault_type, (args.target, args.target2),
                         dwell=getattr(args, "dwell", None),
                         drop_rate=getattr(args, "drop_rate", None))
    return FaultSpec(fault_type, args.target,
                     dwell=getattr(args, "dwell", None))


def _schedule_from_args(args):
    """The run ``validate`` makes: the ``--schedule`` JSON, or ``--fault``
    as a one-entry schedule on a ``--nodes-count`` mesh."""
    from repro.campaign.schedule import FaultSchedule, TimedFault
    if args.schedule is None:
        return FaultSchedule((TimedFault(_fault_from_args(args)),),
                             num_nodes=args.nodes_count)
    try:
        return FaultSchedule.from_dict(json.loads(args.schedule))
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit("bad --schedule JSON: %s" % exc)


def cmd_validate(args):
    from repro.telemetry import Telemetry
    from repro.telemetry.forensics import write_run_evidence

    schedule = _schedule_from_args(args)
    telemetry = Telemetry(max_events=args.max_events) if args.trace else None
    # The machine and run limit a pooled campaign run of this schedule
    # gets, so a record's (schedule, seed) replays here exactly.
    config = MachineConfig(
        num_nodes=schedule.num_nodes, topology=schedule.topology,
        mem_per_node=args.mem_kb << 10, l2_size=args.l2_kb << 10,
        seed=args.seed)
    try:
        result = run_schedule_experiment(schedule, config=config,
                                         seed=args.seed, telemetry=telemetry)
        reports = result.reports
    except (TimeoutError, RuntimeError) as exc:
        # What the pool records as a HUNG run's error.
        result, reports = None, []
        hung = "[HUNG] %s: %s: %s" % (schedule, type(exc).__name__, exc)
    if args.episode is not None and not 0 <= args.episode < len(reports):
        raise SystemExit("--episode %d out of range (run has %d "
                         "episode(s))" % (args.episode, len(reports)))
    print(hung if result is None else result.describe(args.episode))
    passed = result is not None and result.passed
    if telemetry is None:
        return 0 if passed else 1
    audit = write_run_evidence(
        telemetry.recorder, args.trace,
        label="repro %d nodes, %s" % (
            schedule.num_nodes,
            ", ".join(spec.fault_type.value for spec in schedule.specs())),
        episode=None if args.episode is None else reports[args.episode])
    return 0 if passed and audit.verdict != "escape" else 1


def cmd_endtoend(args):
    from repro.hive.endtoend import run_end_to_end_experiment
    from repro.hive.os import HiveConfig

    config = HiveConfig(
        cells=args.nodes_count, seed=args.seed,
        mem_per_node=args.mem_kb << 10, l2_size=args.l2_kb << 10,
        os_incoherent_bug_rate=args.bug_rate)
    result = run_end_to_end_experiment(
        _fault_from_args(args), hive_config=config)
    print(result.table())
    return 1 if result.failed else 0


def _pool_runner(args, **kwargs):
    """The CampaignRunner behind ``campaign`` and ``fuzz``: budget, seed,
    machine shape and sizing, watchdog and workers from the options the
    two subcommands share."""
    from repro.campaign.runner import CampaignRunner, print_progress
    return CampaignRunner(
        runs=args.runs, campaign_seed=args.seed, num_nodes=args.nodes_count,
        topology=args.topology, timeout_s=args.timeout, jobs=args.jobs,
        mem_per_node=args.mem_kb << 10, l2_size=args.l2_kb << 10,
        progress=print_progress, **kwargs)


def cmd_campaign(args):
    from repro.campaign import SCHEDULE_GENERATORS
    from repro.campaign.runner import (
        print_failure,
        print_shrunk,
        report_evidence,
    )
    from repro.campaign.shrink import shrink_failures

    if args.schedule not in SCHEDULE_GENERATORS:
        raise SystemExit(
            "unknown schedule %r (have: %s)"
            % (args.schedule, ", ".join(sorted(SCHEDULE_GENERATORS))))
    out_path = args.out or "campaign_%s_seed%d.jsonl" % (args.schedule,
                                                          args.seed)
    runner = _pool_runner(args, kind=args.schedule, out_path=out_path)
    summary = runner.run()
    forensics_path = report_evidence(out_path, summary.records)
    failures = summary.failures()
    if args.summary_json:
        print(json.dumps(dict(summary.to_dict(), records=out_path,
                              forensics=forensics_path), sort_keys=True))
    else:
        print(summary)
        print("records: %s" % out_path)
        for record in failures:
            print_failure(record, runner.mem_per_node, runner.l2_size)

    if args.shrink and failures:
        print("shrinking %s run %d ..." % (failures[0].status.value,
                                           failures[0].run_index))
        for entry in shrink_failures(runner, failures):
            print_shrunk(entry)

    # Exit status reflects batch health: FAIL verdicts are findings the
    # records carry; CRASHED/HUNG means the campaign machinery itself
    # could not finish a run.
    return 0 if summary.ok else 1


def cmd_fuzz(args):
    from repro.campaign.shrink import shrink_failures
    from repro.fuzz.engine import SHRINK_CHECKS, FuzzEngine, format_report

    out_dir = args.out or "fuzz_seed%d" % args.seed
    records_path = os.path.join(out_dir, "records.jsonl")
    if os.path.exists(records_path) and not args.resume:
        raise SystemExit(
            "%s already holds a fuzz session; pass --resume to continue "
            "it (or --out for a fresh directory)" % out_dir)
    os.makedirs(out_dir, exist_ok=True)

    started = time.monotonic()
    engine = FuzzEngine(strategy=args.strategy)
    runner = _pool_runner(
        args, planner=engine, wall_clock_s=args.wall_clock,
        out_path=records_path,
        status_path=os.path.join(out_dir, "status.json"))
    summary = runner.run()
    shrunk = shrink_failures(
        runner, summary.failures(), limit=args.max_shrinks,
        max_checks=SHRINK_CHECKS,
        out_path=os.path.join(out_dir, "failures.jsonl"))
    report = engine.report(runner, summary, shrunk=shrunk,
                           elapsed_s=time.monotonic() - started)
    if args.summary_json:
        print(json.dumps(dict(report, out_dir=out_dir), sort_keys=True))
    else:
        print(format_report(report))
        print("artifacts: %s" % out_dir)
    return 0


def cmd_bench(args):
    from repro.telemetry.scalability import run_bench

    ok = run_bench(
        sizes=args.sizes, max_nodes=args.max_nodes, out=args.out,
        history=args.history, fault_classes=args.faults,
        topology=args.topology, mem_per_node=args.mem_kb << 10,
        l2_size=args.l2_kb << 10, seed=args.seed)
    return 0 if ok else 1


def cmd_status(args):
    from repro.telemetry.status import watch_status

    watch_status(args.path, as_json=args.json, interval=args.watch)
    return 0


def cmd_report(args):
    from repro.telemetry.report import print_report

    runs = print_report(args.paths, args.out, args.title, as_json=args.json)
    return 0 if runs else 1


def cmd_verify_protocol(args):
    from repro.verify import check_protocol

    report = check_protocol(max_states=args.max_states)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")

    print(payload if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLASH fault-containment experiments (ISCA 1997)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mem-kb", type=int, default=64,
                       help="memory per node in KB")
        p.add_argument("--l2-kb", type=int, default=8,
                       help="L2 cache size in KB")

    def add_pool_run(p, runs, timeout):
        """What ``_pool_runner`` reads: budget, machine, workers."""
        add_common(p)
        p.add_argument("--runs", type=int, default=runs, help="run budget")
        p.add_argument("--nodes-count", type=int, default=8)
        p.add_argument("--topology", default="mesh",
                       choices=["mesh", "hypercube"])
        p.add_argument("--timeout", type=float, default=timeout,
                       help="per-run wall-clock watchdog in seconds")
        p.add_argument("--jobs", type=int, default=1,
                       help="concurrent crash-isolated workers")
        p.add_argument("--summary-json", action="store_true",
                       help="print one machine-readable JSON summary "
                            "line instead of the human report")

    def add_fault(p, target, fault_group=None):
        """What ``_fault_from_args`` reads, and the machine size."""
        add_common(p)
        p.add_argument("--nodes-count", type=int, default=8)
        # No default value: argparse tells a given option from its
        # default by identity, which an interned string defeats.
        (fault_group or p).add_argument(
            "--fault", default=None, choices=[t.value for t in FaultType],
            help="the fault type (default: node_failure)")
        p.add_argument("--target", type=int, default=target)
        p.add_argument("--target2", type=int, default=None)

    p_validate = sub.add_parser(
        "validate",
        help="one Table 5.3-style validation run, of one fault or of a "
             "campaign record's schedule; with --trace, also the Chrome "
             "trace and the containment audit")
    run = p_validate.add_mutually_exclusive_group()
    add_fault(p_validate, target=7, fault_group=run)
    run.add_argument("--schedule", default=None, metavar="JSON",
                     help="replay a multi-fault run: a record's schedule "
                          "(with its --seed and the campaign's --mem-kb/"
                          "--l2-kb); the schedule sets the machine shape")
    p_validate.add_argument("--dwell", type=float, default=None,
                            help="heal/manifestation delay in ns "
                                 "(transient link, delayed wedge)")
    p_validate.add_argument("--drop-rate", type=float, default=None,
                            help="per-packet drop probability "
                                 "(intermittent link)")
    p_validate.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record the run: write a Chrome trace (chrome://tracing / "
             "Perfetto) to PATH and the audit JSON to PATH.forensics.json")
    p_validate.add_argument("--max-events", type=int, default=None,
                            help="with --trace: cap on recorded events "
                                 "(memory bound)")
    p_validate.add_argument("--episode", type=int, default=None,
                            metavar="N",
                            help="print, and export, only recovery episode "
                                 "N (0-based; from its trigger to its end)")
    p_validate.set_defaults(func=cmd_validate)

    p_e2e = sub.add_parser(
        "endtoend",
        help="one Table 5.4-style Hive parallel-make run (one cell per "
             "node)")
    add_fault(p_e2e, target=3)
    p_e2e.add_argument("--bug-rate", type=float, default=0.0,
                       help="Hive incoherent-line bug emulation rate")
    p_e2e.set_defaults(func=cmd_endtoend)

    p_camp = sub.add_parser(
        "campaign",
        help="multi-fault campaign: crash-isolated runs, JSONL records")
    add_pool_run(p_camp, runs=50, timeout=300.0)
    p_camp.add_argument("--schedule", default="random-multi",
                        help="schedule generator name (see "
                             "repro.campaign.SCHEDULE_GENERATORS)")
    p_camp.add_argument("--out", default=None,
                        help="JSONL results file (default: "
                             "campaign_<schedule>_seed<N>.jsonl); "
                             "re-running resumes, skipping recorded runs")
    p_camp.add_argument("--shrink", action="store_true",
                        help="minimize the first failing schedule and "
                             "print its repro command")
    p_camp.set_defaults(func=cmd_campaign)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided schedule fuzzing: mutate fault schedules "
             "against a live coverage map, shrink findings")
    add_pool_run(p_fuzz, runs=200, timeout=120.0)
    p_fuzz.add_argument("--wall-clock", type=float, default=None,
                        metavar="SECONDS",
                        help="budget by wall clock instead of --runs")
    p_fuzz.add_argument("--out", default=None, metavar="DIR",
                        help="session directory (default: fuzz_seed<N>); "
                             "holds records.jsonl, status.json, "
                             "failures.jsonl")
    p_fuzz.add_argument("--resume", action="store_true",
                        help="continue the session already in --out")
    p_fuzz.add_argument("--strategy", default="coverage",
                        choices=["coverage", "random"],
                        help="'random' disables mutation (generator-only "
                             "baseline for coverage comparisons)")
    p_fuzz.add_argument("--max-shrinks", type=int, default=3,
                        help="distinct failures to minimize at session end")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_bench = sub.add_parser(
        "bench",
        help="Figure 5.5 recovery-time sweep (nodes x fault classes, "
             "writes BENCH_scalability.json)")
    add_common(p_bench)
    p_bench.add_argument("--sizes", type=int, nargs="+", default=None,
                         help="explicit machine sizes (default: %s)"
                              % (DEFAULT_SIZES,))
    p_bench.add_argument("--max-nodes", type=int, default=128,
                         help="largest default size to include")
    p_bench.add_argument("--faults", nargs="+", default=["node_failure"],
                         choices=[t.value for t in FaultType],
                         help="fault classes to sweep")
    p_bench.add_argument("--topology", default="mesh",
                         choices=["mesh", "hypercube"])
    p_bench.add_argument("--out", default="BENCH_scalability.json",
                         help="output JSON")
    p_bench.add_argument("--history", default=None, metavar="PATH",
                         help="append this run's headline figures as one "
                              "JSONL line (BENCH_history.jsonl)")
    p_bench.set_defaults(func=cmd_bench)

    p_status = sub.add_parser(
        "status",
        help="read the live status sidecar of a running (or finished) "
             "campaign/fuzz sweep")
    p_status.add_argument("path",
                          help="campaign records path, fuzz session "
                               "directory, or the status.json itself")
    p_status.add_argument("--json", action="store_true",
                          help="print the raw status document")
    p_status.add_argument("--watch", type=float, default=None,
                          metavar="SECONDS",
                          help="re-read every SECONDS until the sweep "
                               "reports finished")
    p_status.set_defaults(func=cmd_status)

    p_report = sub.add_parser(
        "report",
        help="aggregate campaign records and fuzz sessions into one "
             "self-contained HTML fleet report (outcome mix, containment-"
             "time percentiles, blast radius, coverage growth)")
    p_report.add_argument("paths", nargs="+",
                          help="campaign JSONL file(s) and/or fuzz "
                               "session directorie(s)")
    p_report.add_argument("--out", default="report.html",
                          help="HTML output path")
    p_report.add_argument("--title",
                          default="Fault-containment fleet report")
    p_report.add_argument("--json", action="store_true",
                          help="also print the aggregate as JSON")
    p_report.set_defaults(func=cmd_report)

    p_verify = sub.add_parser(
        "verify-protocol",
        help="exhaustively model-check the paper invariants by running "
             "the live protocol handlers over a small model")
    p_verify.add_argument("--format", choices=["text", "json"],
                          default="text")
    p_verify.add_argument("--out", default=None,
                          help="also write the full JSON report (pairs, "
                               "scenarios, violations) to this path")
    p_verify.add_argument("--max-states", type=int, default=500000,
                          help="abort a scenario beyond this many "
                               "explored configurations")
    p_verify.set_defaults(func=cmd_verify_protocol)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
