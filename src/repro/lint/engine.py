"""Lint driver: build a project, run every checker, report findings.

``run_lint()`` with no arguments lints the installed ``repro`` package —
what ``repro.cli lint`` and the CI gate do.  Tests build synthetic
:class:`~repro.lint.core.Project` objects (one "bad module" per rule) and
call :func:`lint_project` directly.
"""

import json
import os

from repro.lint.core import Finding, Module, Project, Severity
from repro.lint.determinism import DeterminismChecker
from repro.lint.hygiene import HygieneChecker
from repro.lint.telemetry import TelemetryCauseChecker, TelemetryGuardChecker


def default_checkers():
    """Every checker; each is safe on any project, fixtures included."""
    return [DeterminismChecker(), TelemetryGuardChecker(),
            TelemetryCauseChecker(), HygieneChecker()]


def all_rules(checkers=None):
    """rule name -> severity across the given (or default) checkers."""
    rules = {}
    for checker in checkers or default_checkers():
        rules.update(checker.rules)
    return rules


def package_root():
    """Directory of the installed ``repro`` package."""
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def _display_path(path):
    relative = os.path.relpath(path, os.getcwd())
    return relative.replace(os.sep, "/") if not relative.startswith("..") \
        else path.replace(os.sep, "/")


def iter_source_files(root):
    for directory, subdirs, files in sorted(os.walk(root)):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def build_project(root=None, paths=None):
    """Parse sources into a Project; syntax errors become findings.

    Returns ``(project, findings)``: the findings are parse failures,
    which no checker can suppress.
    """
    root = root or package_root()
    if paths:
        files = []
        for path in paths:
            if os.path.isdir(path):
                files.extend(iter_source_files(path))
            else:
                files.append(path)
    else:
        files = list(iter_source_files(root))
    modules, findings = [], []
    for path in files:
        rel = os.path.relpath(os.path.abspath(path), root)
        rel = rel.replace(os.sep, "/")
        with open(path) as handle:
            source = handle.read()
        try:
            modules.append(Module(rel, source, path=_display_path(path)))
        except SyntaxError as error:
            findings.append(Finding(
                rule="syntax-error", severity=Severity.ERROR,
                path=_display_path(path), line=error.lineno or 0,
                message="file does not parse: %s" % error.msg))
    return Project(modules), findings


def lint_project(project, checkers=None):
    """Run checkers over a project; suppressions applied, sorted output."""
    checkers = checkers if checkers is not None else default_checkers()
    findings = []
    for module in project.modules:
        for checker in checkers:
            for finding in checker.check_module(module):
                if not module.suppresses(finding):
                    findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key())


def run_lint(root=None, paths=None):
    """Lint the package (or explicit paths); returns the findings."""
    project, findings = build_project(root=root, paths=paths)
    return findings + lint_project(project)


# ---------------------------------------------------------------- reporting

def format_text(findings):
    lines = []
    for finding in findings:
        lines.append("%s: %s [%s] %s" % (
            finding.location, finding.severity.value, finding.rule,
            finding.message))
    counts = {}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    lines.append("%d finding(s): %d error(s), %d warning(s)"
                 % (len(findings), counts.get(Severity.ERROR, 0),
                    counts.get(Severity.WARNING, 0)))
    return "\n".join(lines)


def format_json(findings):
    return json.dumps({
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
        "errors": sum(1 for finding in findings
                      if finding.severity is Severity.ERROR),
        "warnings": sum(1 for finding in findings
                        if finding.severity is Severity.WARNING),
    }, indent=2, sort_keys=True)
