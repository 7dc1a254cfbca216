"""Multi-fault campaign engine.

Single-fault validation (paper §5.2) leaves the hardest recovery code —
the §4.1 restart-on-new-fault rule and the surviving-node merge logic —
nearly untested.  This package stress-tests exactly that:

* :mod:`repro.campaign.schedule` — timed/phase-triggered fault sequences
  and generators for the hard cases (fault during each recovery phase,
  correlated link+router faults, false-alarm storms, flaky links);
* :mod:`repro.campaign.pool` — persistent crash-isolated workers with
  per-run watchdogs, and the one loop that drives them;
* :mod:`repro.campaign.runner` — the one harness on that loop: planned
  runs in (from a generator, a fixed schedule or the fuzz planner),
  resumable JSONL records, status heartbeat and outcome counts out;
* :mod:`repro.campaign.records` — the one record type and the one
  append/load helper pair every JSONL file in the repo goes through;
* :mod:`repro.campaign.shrink` — greedy minimization of failing schedules
  into ready-to-paste reproducers, and the one shrink-and-report path.
"""

from repro.campaign.records import RunRecord, RunStatus
from repro.campaign.runner import CampaignRunner, CampaignSummary
from repro.campaign.schedule import (
    SCHEDULE_GENERATORS,
    FaultSchedule,
    TimedFault,
    make_schedule,
)
from repro.campaign.shrink import repro_command, shrink_schedule

__all__ = [
    "CampaignRunner",
    "CampaignSummary",
    "FaultSchedule",
    "RunRecord",
    "RunStatus",
    "SCHEDULE_GENERATORS",
    "TimedFault",
    "make_schedule",
    "repro_command",
    "shrink_schedule",
]
