#!/usr/bin/env python
"""Parallel make on Hive with a mid-build node failure (paper §5.1-§5.2).

Boots an 8-cell Hive system, starts one compile per cell (cell 0 doubles
as the file server, all file data moving through shared memory), kills a
node mid-build, and shows which compiles survive.

Run:  python examples/parallel_make_on_hive.py
"""

from repro.faults.models import FaultSpec
from repro.hive.os import HiveConfig, HiveOS
from repro.workloads.pmake import compile_job, create_build_tree


def main():
    config = HiveConfig(cells=8, seed=7, mem_per_node=1 << 18,
                        l2_size=1 << 14)
    hive = HiveOS(config).start()
    print("Booted Hive: %d cells, file server on cell %d."
          % (config.cells, config.file_server_cell))

    jobs = list(range(config.cells))
    create_build_tree(hive, jobs)
    processes = {}
    for job_id in jobs:
        processes[job_id] = hive.spawn_process(
            job_id, "cc%d" % job_id,
            compile_job(hive, job_id, job_id),
            dependencies={config.file_server_cell})
    print("Started %d compile jobs." % len(jobs))

    # Let the build get going, then kill cell 5's node.
    hive.sim.run(until=2_000_000)
    victim_cell = 5
    hive.machine.injector.inject(
        FaultSpec.node_failure(hive.cells[victim_cell].lead_node))
    print("t=%.2f ms: node of cell %d failed mid-build."
          % (hive.sim.now / 1e6, victim_cell))

    # Run until the surviving compiles settle.
    manager = hive.machine.recovery_manager

    def settled():
        if manager.in_progress or hive.os_recovery_in_progress:
            return False
        return all(p.state != "running" for p in processes.values()
                   if p.cell.alive)

    hive.sim.run_until(settled, limit=120_000_000_000)

    report = manager.reports[-1]
    _, os_start, os_end = hive.os_recovery_reports[-1]
    print()
    print("Hardware recovery: %.2f ms; OS recovery: %.2f ms."
          % (report.total_duration / 1e6, (os_end - os_start) / 1e6))
    print()
    print("Compile outcomes:")
    for job_id, process in sorted(processes.items()):
        reason = (" (%s)" % process.termination_reason
                  if process.termination_reason else "")
        print("  cc%d on cell %d: %-10s%s"
              % (job_id, job_id, process.state, reason))

    survivors = [j for j, p in processes.items() if p.state == "done"]
    print()
    print("%d of %d compiles finished; only cell %d's compile was lost — "
          "the fault stayed contained to its failure unit."
          % (len(survivors), len(jobs), victim_cell))


if __name__ == "__main__":
    main()
