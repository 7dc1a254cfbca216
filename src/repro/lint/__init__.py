"""``repro.lint`` — AST-based code-hygiene linter for the reproduction.

The static counterpart of the paper's firmware assertions (§4.2) for the
simulator's own code.  It keeps only the rules whose job no tier-1 test
can do: determinism and the zero-cost telemetry guard are checked
dynamically, by the pinned digests and the purity tests, which CI also
runs under fixed hash seeds (DESIGN.md §10).  The coherence protocol
itself is checked by one gate, ``repro.cli verify-protocol``
(:mod:`repro.verify`), not here.

=====================  ====================================================
rule                   invariant guarded
=====================  ====================================================
telemetry-cause        forensics: packet-path emissions name their causal
                       parent
sim-blocking           virtual time: sim processes never block on the
                       real world
handler-cost           timing model: every dispatch handler returns its
                       occupancy
broad-except           fault containment of the *tooling*: model bugs
                       escalate except at crash-isolation boundaries
=====================  ====================================================

Run it as ``python -m repro.cli lint``; it exits nonzero on any finding.
Suppress a deliberate exception with
``# repro-lint: disable=<rule> — <justification>``.
"""

from repro.lint.core import Checker, Finding, Module, Project
from repro.lint.engine import (
    all_rules,
    build_project,
    default_checkers,
    format_github,
    format_json,
    format_text,
    lint_project,
    package_root,
    run_lint,
)

__all__ = [
    "Checker", "Finding", "Module", "Project",
    "all_rules", "build_project", "default_checkers",
    "format_github", "format_json", "format_text", "lint_project",
    "package_root", "run_lint",
]
