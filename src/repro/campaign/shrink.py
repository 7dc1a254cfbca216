"""Greedy minimization of failing fault schedules.

A randomly generated schedule that breaks recovery usually carries noise:
faults that play no part in the bug, odd timestamps, a bigger machine than
needed.  :func:`shrink_schedule` strips all of that while a caller-supplied
predicate keeps confirming "still fails", then :func:`repro_command` turns
the minimized schedule into a ready-to-paste reproduction command.

The passes (each run to a fixpoint, in order of expected payoff):

1. **drop entries** — remove one fault at a time;
2. **simplify timing** — zero a timed entry's offset, else round it to a
   whole millisecond;
3. **shrink the machine** — retarget the schedule onto fewer nodes when
   every fault target still exists there
   (:func:`~repro.campaign.schedule.valid_for_machine`).

:func:`shrink_failures` is what a finished campaign or fuzz session calls:
it minimizes the first few distinct failing records, each candidate in a
crash-isolated worker, and returns one report entry per failure.
"""

import dataclasses
import json

from repro.campaign.records import RunStatus, append_json_line
from repro.campaign.schedule import (
    FaultSchedule,
    schedule_fingerprint,
    valid_for_machine,
)

_MS = 1_000_000.0
#: the machine sizes pass 3 tries, smallest first
_MACHINE_SIZES = (2, 4, 6)


@dataclasses.dataclass
class ShrinkResult:
    """The minimized schedule plus how much work it took."""

    schedule: FaultSchedule
    original: FaultSchedule
    checks: int           # predicate invocations spent
    steps: list           # human-readable log of accepted reductions

    def __str__(self):
        return ("shrunk %d->%d faults, %d->%d nodes in %d checks"
                % (self.original.fault_count, self.schedule.fault_count,
                   self.original.num_nodes, self.schedule.num_nodes,
                   self.checks))


def shrink_schedule(schedule, still_fails, max_checks=200):
    """Minimize ``schedule`` while ``still_fails(candidate)`` holds.

    ``still_fails`` must be a pure-ish predicate (typically: run the
    schedule under :func:`~repro.core.experiment.run_schedule_experiment`
    with the failing seed and report ``not result.passed``).  A predicate
    that aborts with the simulator's abort types — ``TimeoutError`` from a
    ``run_until`` limit, ``RuntimeError`` from a drained event heap or
    deadlock detection — counts as failing too: an abort is exactly the
    kind of bug worth minimizing.  Any *other* exception propagates; to
    treat arbitrary crashes as failures, run candidates through the
    crash-isolated :func:`~repro.campaign.runner.run_schedule_isolated`,
    which never raises.  The original schedule is assumed failing and is
    never re-checked.  ``max_checks`` bounds the total predicate budget.
    """
    state = {"checks": 0}
    steps = []

    def fails(candidate):
        if state["checks"] >= max_checks:
            return False
        state["checks"] += 1
        try:
            return bool(still_fails(candidate))
        except (TimeoutError, RuntimeError):
            # The simulator's abort types (run_until limit, drained event
            # heap) count as failing: an abort is exactly the kind of bug
            # worth minimizing.
            return True

    current = schedule

    # Pass 1: drop entries, restarting the scan after every success so the
    # greedy walk reaches a fixpoint.
    changed = True
    while changed and current.fault_count > 1:
        changed = False
        for index in range(current.fault_count):
            entries = (current.entries[:index]
                       + current.entries[index + 1:])
            candidate = current.replace(entries=entries)
            if fails(candidate):
                steps.append("dropped %s" % current.entries[index])
                current = candidate
                changed = True
                break

    # Pass 2: simplify timing — zero first, whole milliseconds second.
    entries = list(current.entries)
    for index, entry in enumerate(entries):
        if entry.phase is not None or entry.time == 0.0:
            continue
        for new_time in (0.0, round(entry.time / _MS) * _MS):
            if new_time == entry.time:
                continue
            trial = list(entries)
            trial[index] = dataclasses.replace(entry, time=new_time)
            candidate = current.replace(entries=tuple(trial))
            if fails(candidate):
                steps.append("time %s: %.0f -> %.0f"
                             % (entry.spec, entry.time, new_time))
                entries = trial
                current = candidate
                break

    # Pass 3: fewest nodes on which every target still exists.
    for num_nodes in _MACHINE_SIZES:
        if num_nodes >= current.num_nodes:
            break
        if not valid_for_machine(current, num_nodes):
            continue
        candidate = current.replace(num_nodes=num_nodes)
        if fails(candidate):
            steps.append("machine %d -> %d nodes"
                         % (current.num_nodes, num_nodes))
            current = candidate
            break

    return ShrinkResult(schedule=current, original=schedule,
                        checks=state["checks"], steps=steps)


def repro_command(schedule, seed=0):
    """A ready-to-paste command replaying exactly this schedule + seed."""
    payload = json.dumps(schedule.to_dict(), sort_keys=True)
    return ("PYTHONPATH=src python -m repro.cli campaign "
            "--replay '%s' --runs 1 --seed %d" % (payload, seed))


def replay_command(lineage, campaign):
    """A ready-to-paste bit-identical rebuild-and-run of one fuzz lineage
    of ``campaign``."""
    return ("PYTHONPATH=src python -m repro.cli fuzz --replay '%s' "
            "--seed %d --nodes-count %d --topology %s"
            % (lineage, campaign.campaign_seed, campaign.num_nodes,
               campaign.topology))


def shrink_failures(campaign, failures, limit=1, max_checks=200,
                    out_path=None):
    """Minimize the first ``limit`` of ``failures`` with distinct
    schedules; returns one JSON-friendly entry per minimized failure.

    ``failures`` are non-PASS run records of ``campaign`` (a
    :class:`~repro.campaign.runner.CampaignRunner`); every candidate runs
    with the failing run's own seed in a crash-isolated worker under the
    campaign's watchdog and machine sizing, so a candidate that crashes or
    hangs counts as still failing.  Each entry is appended to
    ``out_path`` (JSONL) as soon as it exists.
    """
    from repro.campaign.runner import run_schedule_isolated
    entries = []
    seen = set()
    for record in failures:
        if len(entries) >= limit:
            break
        schedule = FaultSchedule.from_dict(record.schedule)
        fingerprint = schedule_fingerprint(schedule)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)

        def still_fails(candidate):
            rerun = run_schedule_isolated(
                candidate, record.seed, timeout_s=campaign.timeout_s,
                run_limit=campaign.run_limit,
                mem_per_node=campaign.mem_per_node,
                l2_size=campaign.l2_size)
            return rerun.status is not RunStatus.PASS

        result = shrink_schedule(schedule, still_fails,
                                 max_checks=max_checks)
        entry = {
            "run_index": record.run_index,
            "seed": record.seed,
            "status": record.status.value,
            "problems": record.problems,
            "forensics": record.forensics,
            "schedule": record.schedule,
            "shrunk_schedule": result.schedule.to_dict(),
            "shrink_summary": str(result),
            "shrink_steps": result.steps,
            "shrink_checks": result.checks,
            "repro": repro_command(result.schedule, record.seed),
        }
        if record.fuzz:
            entry["lineage"] = record.fuzz["lineage"]
            entry["replay"] = replay_command(entry["lineage"], campaign)
        entries.append(entry)
        if out_path:
            append_json_line(out_path, entry)
    return entries
