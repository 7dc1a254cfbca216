"""Command-line interface: run paper experiments without writing code.

Usage::

    python -m repro.cli validate --fault node_failure --target 3
    python -m repro.cli endtoend --fault infinite_loop --target 5
    python -m repro.cli bench --sizes 4 8 16 32 --topology mesh
    python -m repro.cli campaign --runs 50 --seed 7 \\
        --schedule fault-during-recovery
"""

import argparse
import json
import os
import sys
import time

from repro.analysis.tables import format_table
from repro.core.config import MachineConfig
from repro.core.experiment import run_validation_experiment
from repro.faults.models import LINK_FAULT_TYPES, FaultSpec, FaultType
from repro.telemetry.scalability import DEFAULT_SIZES


def _fault_from_args(args):
    fault_type = FaultType(args.fault)
    if fault_type in LINK_FAULT_TYPES:
        if args.target2 is None:
            raise SystemExit("%s needs --target and --target2"
                             % fault_type.value)
        return FaultSpec(fault_type, (args.target, args.target2),
                         dwell=getattr(args, "dwell", None),
                         drop_rate=getattr(args, "drop_rate", None))
    return FaultSpec(fault_type, args.target,
                     dwell=getattr(args, "dwell", None))


def _run_validation(args, telemetry=None):
    """The one §5.2 run behind ``validate``, ``trace`` and ``forensics``:
    the machine and fault the arguments describe; returns the
    ScheduleResult."""
    config = MachineConfig(
        num_nodes=args.nodes_count, mem_per_node=args.mem_kb << 10,
        l2_size=args.l2_kb << 10, seed=args.seed,
        firewall_enabled=not getattr(args, "no_firewall", False))
    return run_validation_experiment(
        _fault_from_args(args), config=config, seed=args.seed,
        telemetry=telemetry)


def cmd_validate(args):
    result = _run_validation(args)
    print(result)
    for problem in result.problems:
        print("  !", problem)
    if not result.reports:
        # A transient fault can heal before any detector fires.
        print("recovery: never triggered (fault healed undetected)")
    for index, report in enumerate(result.reports):
        print("recovery episode %d: %.2f ms, %d restart(s), survivors %s, "
              "%d lines marked incoherent"
              % (index, report.total_duration / 1e6, report.restarts,
                 sorted(report.available_nodes), report.marked_incoherent))
    return 0 if result.passed else 1


def cmd_endtoend(args):
    from repro.hive.endtoend import run_end_to_end_experiment
    from repro.hive.os import HiveConfig
    config = HiveConfig(
        cells=args.nodes_count, seed=args.seed,
        mem_per_node=args.mem_kb << 10, l2_size=args.l2_kb << 10,
        os_incoherent_bug_rate=args.bug_rate)
    result = run_end_to_end_experiment(
        _fault_from_args(args), hive_config=config)
    print(format_table(
        "End-to-end run: %s" % _fault_from_args(args),
        ["metric", "value"],
        [
            ("hardware recovered", result.recovered),
            ("OS recovered", result.os_recovered),
            ("compiles expected to survive", result.compiles_expected),
            ("compiles correct", result.compiles_correct),
            ("run failed", result.failed),
            ("failure reason", result.failure_reason or "-"),
            ("HW recovery [ms]", "%.2f" % (result.hw_recovery_ns / 1e6)),
            ("OS recovery [ms]", "%.2f" % (result.os_recovery_ns / 1e6)),
        ]))
    return 0 if not result.failed else 1


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
    from repro.campaign import SCHEDULE_GENERATORS, FaultSchedule
    from repro.campaign.runner import (
        print_failure,
        print_shrunk,
        report_evidence,
    )
    from repro.campaign.shrink import shrink_failures

    fixed_schedule = None
    if args.replay:
        try:
            fixed_schedule = FaultSchedule.from_dict(json.loads(args.replay))
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit("bad --replay JSON: %s" % exc)
    elif args.schedule not in SCHEDULE_GENERATORS:
        raise SystemExit(
            "unknown schedule %r (have: %s)"
            % (args.schedule, ", ".join(sorted(SCHEDULE_GENERATORS))))
    out_path = args.out
    if out_path is None:
        label = "replay" if fixed_schedule is not None else args.schedule
        out_path = "campaign_%s_seed%d.jsonl" % (label, args.seed)

    runner = _pool_runner(args, kind=args.schedule, schedule=fixed_schedule,
                          out_path=out_path, telemetry_mode=args.telemetry)
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
            print_failure(record)

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
    from repro.campaign.records import RunStatus
    from repro.campaign.runner import print_failure, run_schedule_isolated
    from repro.campaign.shrink import shrink_failures
    from repro.fuzz.engine import SHRINK_CHECKS, FuzzEngine, format_report
    from repro.fuzz.mutate import derive_mutant_seed, rebuild_from_lineage

    if args.replay:
        try:
            schedule = rebuild_from_lineage(
                args.seed, args.replay, num_nodes=args.nodes_count,
                topology=args.topology)
        except ValueError as exc:
            raise SystemExit("bad --replay lineage: %s" % exc)
        seed = derive_mutant_seed(args.seed, args.replay)
        record = run_schedule_isolated(
            schedule, seed, timeout_s=args.timeout,
            mem_per_node=args.mem_kb << 10, l2_size=args.l2_kb << 10)
        if args.summary_json:
            print(json.dumps(record.to_dict(), sort_keys=True))
        else:
            print("replay %s" % args.replay)
            print("  schedule: %s" % schedule)
            print("  machine seed: %d" % seed)
            print("  -> [%s]" % record.status.value)
            if record.status is not RunStatus.PASS:
                print_failure(record)
        return 0 if record.status is RunStatus.PASS else 1

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


def cmd_trace(args):
    from repro.telemetry import Telemetry, build_timelines, write_chrome_trace
    from repro.telemetry.timeline import format_timeline

    telemetry = Telemetry(max_events=args.max_events)
    result = _run_validation(args, telemetry=telemetry)
    print(result)
    recorder = telemetry.recorder
    events = recorder.events
    timelines = build_timelines(events)
    if args.episode is not None:
        if not 0 <= args.episode < len(timelines):
            raise SystemExit("--episode %d out of range (trace has %d "
                             "episode(s))" % (args.episode, len(timelines)))
        timeline = timelines[args.episode]
        end = (timeline.end_time if timeline.end_time is not None
               else float("inf"))
        events = [event for event in events
                  if timeline.trigger_time <= event.time <= end]
        timelines = [timeline]
    write_chrome_trace(
        events, args.out,
        label="repro %d nodes, %s" % (args.nodes_count, args.fault),
        dropped_events=recorder.dropped_events)
    for timeline in timelines:
        print(format_timeline(timeline))
    print("%d events (%d dropped) -> %s"
          % (len(events), recorder.dropped_events, args.out))
    if recorder.dropped_events:
        print("WARNING: trace truncated — %d event(s) past the "
              "--max-events cap were dropped; timelines and the Chrome "
              "export miss the run's tail" % recorder.dropped_events,
              file=sys.stderr)
    return 0 if result.passed else 1


def cmd_forensics(args):
    from repro.telemetry import Telemetry
    from repro.telemetry.forensics import analyze, format_forensics

    telemetry = Telemetry(max_events=args.max_events)
    result = _run_validation(args, telemetry=telemetry)
    report = analyze(telemetry.recorder)
    if args.format == "json":
        payload = report.to_dict()
        payload["run_passed"] = result.passed
        payload["problems"] = list(result.problems)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result)
        for problem in result.problems:
            print("  !", problem)
        print(format_forensics(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("forensic report: %s" % args.out, file=sys.stderr)
    return 0 if result.passed and report.verdict != "escape" else 1


def cmd_bench(args):
    from repro.telemetry.scalability import (
        append_bench_history,
        run_scalability_sweep,
        scalability_table,
        sweep_ok,
        write_bench_json,
    )

    sizes = args.sizes
    if sizes is None:
        sizes = [n for n in DEFAULT_SIZES if n <= args.max_nodes]
    if not sizes:
        raise SystemExit("no sweep sizes (check --max-nodes/--sizes)")

    def progress(result):
        recovery = result.get("recovery") or {}
        print("  %3d nodes %-22s total=%s ms wall=%.1fs"
              % (result["nodes"], result["fault"],
                 recovery.get("total_ms", "-"),
                 result["sim"]["wall_s"]), file=sys.stderr)

    out = args.out or "BENCH_scalability.json"
    payload = run_scalability_sweep(
        sizes=sizes, fault_classes=args.faults, topology=args.topology,
        mem_per_node=args.mem_kb << 10, l2_size=args.l2_kb << 10,
        seed=args.seed, progress=progress)
    write_bench_json(payload, out)
    if args.history:
        append_bench_history(payload, args.history)
    print(scalability_table(payload))
    print("wrote %s" % out)
    return 0 if sweep_ok(payload) else 1


def cmd_status(args):
    from repro.telemetry.status import (
        format_status,
        read_status,
        status_sidecar_path,
    )

    sidecar = status_sidecar_path(args.path)
    while True:
        payload = read_status(sidecar)
        if payload is None:
            raise SystemExit("no status sidecar at %s (is the sweep "
                             "running with an output path?)" % sidecar)
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(format_status(payload))
        if args.watch is None or payload.get("finished"):
            return 0
        time.sleep(args.watch)


def cmd_report(args):
    from repro.telemetry.report import write_report

    agg = write_report(args.paths, args.out, title=args.title)
    if args.json:
        payload = dict(agg)
        payload["out"] = args.out
        print(json.dumps(payload, sort_keys=True))
    else:
        print("report: %d run(s) from %d source(s) -> %s"
              % (agg["runs"], len(agg["sources"]), args.out))
        containment = agg["containment_ms"]
        if containment["count"]:
            print("  containment: %d episode(s)  p50=%s p95=%s p99=%s ms"
                  % (containment["count"], containment["p50"],
                     containment["p95"], containment["p99"]))
        avail = agg["availability"]
        if avail.get("runs"):
            mttr = avail.get("mttr_ms") or {}
            print("  availability: mean=%s min=%s  MTTR p50=%s p95=%s ms"
                  % (avail.get("availability_mean"),
                     avail.get("availability_min"),
                     mttr.get("p50"), mttr.get("p95")))
    if not agg["runs"]:
        print("report: no records found in: %s" % " ".join(args.paths),
              file=sys.stderr)
        return 1
    return 0


def _format_github(findings):
    """GitHub Actions workflow-command annotations, one per finding."""
    lines = []
    for finding in findings:
        level = ("error" if finding.severity.value == "error"
                 else "warning")
        message = "[%s] %s" % (finding.rule, finding.message)
        # Workflow commands eat newlines/percent unless URL-escaped.
        message = (message.replace("%", "%25").replace("\r", "%0D")
                   .replace("\n", "%0A"))
        lines.append("::%s file=%s,line=%d::%s"
                     % (level, finding.path, finding.line, message))
    lines.append("%d finding(s)" % len(findings))
    return "\n".join(lines)


def cmd_lint(args):
    from repro.lint import all_rules, format_json, format_text, run_lint

    findings = run_lint(paths=args.paths or None)
    if args.rule:
        registry = all_rules()
        unknown = sorted(set(args.rule) - set(registry) - {"syntax-error"})
        if unknown:
            raise SystemExit(
                "unknown rule(s): %s (known: %s)"
                % (", ".join(unknown), ", ".join(sorted(registry))))
        wanted = set(args.rule)
        findings = [f for f in findings if f.rule in wanted]
    if args.format == "json":
        print(format_json(findings))
    elif args.format == "github":
        print(_format_github(findings))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def cmd_verify_protocol(args):
    from repro.verify import check_protocol

    report = check_protocol(max_states=args.max_states)
    ok = report.ok
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")

    if args.format == "json":
        print(payload)
        return 0 if ok else 1

    print("model: live handlers, %d (directory state, kind) pairs "
          "delivered" % len(report.pairs))
    for scenario in report.scenarios:
        print("  %-26s %6d states %7d transitions %3d violation(s)"
              % (scenario.name, scenario.states, scenario.transitions,
                 len(scenario.violations)))
    print("  %-26s %3d violation(s)" % ("direct (UC, PAGE_SCRUB)",
                                        len(report.direct_violations)))
    for violation in report.violations():
        print("VIOLATION [%s] in %s: %s"
              % (violation.invariant, violation.scenario,
                 violation.description))
        for step in violation.trace:
            print("    %s" % step)
    print("verify-protocol: %s (%d states, %d transitions explored)"
          % ("OK" if ok else "FAILED",
             report.total_states, report.total_transitions))
    return 0 if ok else 1


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

    def add_validation_run(p):
        """What ``_run_validation`` reads: machine size and one fault."""
        add_common(p)
        p.add_argument("--nodes-count", type=int, default=8)
        p.add_argument(
            "--fault", default="node_failure",
            choices=[t.value for t in FaultType])
        p.add_argument("--target", type=int, default=7)
        p.add_argument("--target2", type=int, default=None)
        p.add_argument("--dwell", type=float, default=None,
                       help="heal/manifestation delay in ns "
                            "(transient link, delayed wedge)")
        p.add_argument("--drop-rate", type=float, default=None,
                       help="per-packet drop probability "
                            "(intermittent link)")

    p_validate = sub.add_parser(
        "validate", help="one Table 5.3-style validation run")
    add_validation_run(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_e2e = sub.add_parser(
        "endtoend", help="one Table 5.4-style Hive parallel-make run")
    add_common(p_e2e)
    p_e2e.add_argument("--nodes-count", type=int, default=8,
                       help="number of Hive cells (1 node each)")
    p_e2e.add_argument(
        "--fault", default="node_failure",
        choices=[t.value for t in FaultType])
    p_e2e.add_argument("--target", type=int, default=3)
    p_e2e.add_argument("--target2", type=int, default=None)
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
    p_camp.add_argument("--replay", default=None, metavar="JSON",
                        help="replay one exact schedule (JSON, as printed "
                             "by a failure's repro command)")
    p_camp.add_argument("--out", default=None,
                        help="JSONL results file (default: "
                             "campaign_<schedule>_seed<N>.jsonl); "
                             "re-running resumes, skipping recorded runs")
    p_camp.add_argument("--shrink", action="store_true",
                        help="minimize the first failing schedule and "
                             "print its repro command")
    p_camp.add_argument("--telemetry", default="trace",
                        choices=["trace", "flight"],
                        help="'flight': tracing off, an always-on "
                             "last-N flight ring per run, dumped into "
                             "the record on failures and stray-message "
                             "storms (the cheap mode for large sweeps)")
    p_camp.set_defaults(func=cmd_campaign)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided schedule fuzzing: mutate fault schedules "
             "against a live coverage map, shrink and replay findings")
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
    p_fuzz.add_argument("--replay", default=None, metavar="LINEAGE",
                        help="rebuild one schedule from its lineage and "
                             "run it once, bit-identically")
    p_fuzz.add_argument("--strategy", default="coverage",
                        choices=["coverage", "random"],
                        help="'random' disables mutation (generator-only "
                             "baseline for coverage comparisons)")
    p_fuzz.add_argument("--max-shrinks", type=int, default=3,
                        help="distinct failures to minimize at session end")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_trace = sub.add_parser(
        "trace",
        help="run one validation experiment with event tracing; write a "
             "Chrome trace (chrome://tracing / Perfetto) and print the "
             "per-phase recovery timeline")
    add_validation_run(p_trace)
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace_event JSON output path")
    p_trace.add_argument("--max-events", type=int, default=None,
                         help="cap on recorded events (memory bound)")
    p_trace.add_argument("--episode", type=int, default=None, metavar="N",
                         help="export only recovery episode N's events "
                              "(0-based; uses the episode timeline window)")
    p_trace.set_defaults(func=cmd_trace)

    p_forensics = sub.add_parser(
        "forensics",
        help="run one traced validation experiment, reconstruct the causal "
             "DAG and print the blast-radius / containment-audit report")
    add_validation_run(p_forensics)
    p_forensics.add_argument("--max-events", type=int, default=None,
                             help="cap on recorded events (memory bound)")
    p_forensics.add_argument("--no-firewall", action="store_true",
                             help="disable the §3.3 firewall: the audit "
                                  "should then observe the escape the "
                                  "oracle detects")
    p_forensics.add_argument("--format", choices=["text", "json"],
                             default="text")
    p_forensics.add_argument("--out", default=None,
                             help="also write the full JSON report here")
    p_forensics.set_defaults(func=cmd_forensics)

    p_bench = sub.add_parser(
        "bench",
        help="Figure 5.5 recovery-time sweep (nodes x fault classes, "
             "writes BENCH_scalability.json)")
    p_bench.add_argument("--seed", type=int, default=0)
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
    p_bench.add_argument("--mem-kb", type=int, default=64)
    p_bench.add_argument("--l2-kb", type=int, default=8)
    p_bench.add_argument("--out", default=None,
                         help="output JSON (default: "
                              "BENCH_scalability.json)")
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
             "self-contained HTML fleet report (outcome mix, containment "
             "and availability/MTTR percentiles, blast radius, coverage "
             "growth)")
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

    p_lint = sub.add_parser(
        "lint",
        help="AST code-hygiene linter: determinism, telemetry zero-cost "
             "guards, sim-process hygiene")
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                             "installed repro package)")
    p_lint.add_argument("--format", choices=["text", "json", "github"],
                        default="text",
                        help="github emits workflow error annotations")
    p_lint.add_argument("--rule", action="append", default=None,
                        metavar="RULE",
                        help="only report findings from this rule "
                             "(repeatable)")
    p_lint.set_defaults(func=cmd_lint)

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
