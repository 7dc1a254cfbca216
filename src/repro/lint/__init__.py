"""``repro.lint`` — AST-based code-hygiene linter for the reproduction.

The static counterpart of the paper's firmware assertions (§4.2) for the
simulator's own code: three checker families prove classes of simulator
bugs absent at lint time rather than catching them as flaky campaign
failures.  The coherence protocol itself is checked by one gate,
``repro.cli verify-protocol`` (:mod:`repro.verify`), not here.

=====================  ====================================================
rule                   invariant guarded
=====================  ====================================================
wall-clock             deterministic replay: no real-clock reads in
                       scheduler-driven code
unseeded-random        deterministic replay: all randomness is seeded
unordered-iter         deterministic replay: no set-order-dependent event
                       scheduling
telemetry-guard        §6.2 zero-overhead claim: emission sites reduce to
                       one identity check when disabled
telemetry-cause        forensics: packet-path emissions name their causal
                       parent
sim-blocking           virtual time: sim processes never block on the
                       real world
handler-cost           timing model: every dispatch handler returns its
                       occupancy
broad-except           fault containment of the *tooling*: model bugs
                       escalate except at crash-isolation boundaries
=====================  ====================================================

Run it as ``python -m repro.cli lint``; suppress a deliberate exception
with ``# repro-lint: disable=<rule> — <justification>``.
"""

from repro.lint.core import (
    Checker,
    Finding,
    Module,
    Project,
    Severity,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import (
    all_rules,
    build_project,
    default_checkers,
    format_json,
    format_text,
    lint_project,
    package_root,
    run_lint,
)

__all__ = [
    "Checker", "Finding", "Module", "Project", "Severity",
    "apply_baseline", "load_baseline", "write_baseline",
    "all_rules", "build_project", "default_checkers",
    "format_json", "format_text", "lint_project",
    "package_root", "run_lint",
]
