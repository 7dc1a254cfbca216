"""Checker framework: findings, modules and suppressions.

The linter is the static half of the paper's firmware assertions (§4.2):
instead of catching an invariant violation at dispatch time, each checker
proves a class of violation absent from the source before the simulator
ever runs.  The framework is deliberately small:

* a :class:`Finding` is one violation at ``path:line`` with a rule name
  and severity;
* a :class:`Module` is one parsed source file; a :class:`Project` is the
  sorted set of modules one run lints;
* ``# repro-lint: disable=<rule>[,<rule>...]`` on the offending line
  suppresses findings on that line, and
  ``# repro-lint: disable-file=<rule>`` anywhere in a file suppresses the
  rule for the whole file — both are meant to carry a justification in
  the rest of the comment.

Nothing is grandfathered: the tree lints clean and CI fails on any
finding.
"""

import ast
import enum
import re


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


class Finding:
    """One rule violation at a source location."""

    __slots__ = ("rule", "severity", "path", "line", "message")

    def __init__(self, rule, severity, path, line, message):
        self.rule = rule
        self.severity = severity
        self.path = path
        self.line = line
        self.message = message

    @property
    def location(self):
        return "%s:%d" % (self.path, self.line)

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self):
        return {"rule": self.rule, "severity": self.severity.value,
                "path": self.path, "line": self.line,
                "message": self.message}

    def __eq__(self, other):
        return (isinstance(other, Finding)
                and self.to_dict() == other.to_dict())

    def __repr__(self):
        return "<Finding %s %s %s>" % (self.rule, self.location,
                                       self.message)


_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)=([A-Za-z0-9_,-]+)")


class Module:
    """One parsed source file.

    ``rel`` is the package-relative posix path (``coherence/protocol.py``)
    that zone matching and the cross-file checkers key on; ``path`` is the
    path findings display (repo-relative for real runs).
    """

    def __init__(self, rel, source, path=None):
        self.rel = rel
        self.path = path or rel
        self.source = source
        self.tree = ast.parse(source)
        self.line_disables = {}    # line number -> set of rule names
        self.file_disables = set()
        for number, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA.search(text)
            if match is None:
                continue
            rules = {rule.strip() for rule in match.group(2).split(",")
                     if rule.strip()}
            if match.group(1) == "disable-file":
                self.file_disables |= rules
            else:
                self.line_disables.setdefault(number, set()).update(rules)

    def in_zone(self, zones):
        return any(self.rel.startswith(zone) for zone in zones)

    def suppresses(self, finding):
        if {"all", finding.rule} & self.file_disables:
            return True
        rules = self.line_disables.get(finding.line, ())
        return "all" in rules or finding.rule in rules


class Project:
    """The modules under lint, in package-relative path order."""

    def __init__(self, modules):
        self.modules = sorted(modules, key=lambda module: module.rel)


class Checker:
    """Base class: one visitor run over every module.

    ``rules`` maps each rule name the checker may report to its severity;
    subclasses build findings through :meth:`finding` so severities stay
    consistent with the registry the CLI prints.
    """

    rules = {}

    def finding(self, rule, module, line, message):
        return Finding(rule=rule, severity=self.rules[rule],
                       path=module.path, line=line, message=message)

    def check_module(self, module):
        return ()


# ------------------------------------------------------------- AST helpers

class ImportMap:
    """Resolves names through a module's imports to dotted origins.

    ``import time`` makes ``time.monotonic`` resolve to itself;
    ``from datetime import datetime`` makes ``datetime.now`` resolve to
    ``datetime.datetime.now``; unimported bases resolve to their literal
    attribute chain (so ``self.trace.emit`` stays ``self.trace.emit``).
    """

    def __init__(self, tree):
        self.names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else bound
                    self.names[bound] = origin
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.names[bound] = "%s.%s" % (node.module, alias.name)

    def resolve(self, node):
        """Dotted origin of a Name/Attribute chain, or None."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.names.get(node.id, node.id))
        return ".".join(reversed(parts))

    def imports_module(self, name):
        return any(origin == name or origin.startswith(name + ".")
                   for origin in self.names.values())


def attr_chain(node):
    """Literal source chain of a Name/Attribute node (``self.trace``)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def handler_table(tree, table_name="_HANDLERS"):
    """The module-level handler dict: kind member -> (method name, line)."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [target.id for target in node.targets
                   if isinstance(target, ast.Name)]
        if table_name in targets and isinstance(node.value, ast.Dict):
            table = {}
            for key, value in zip(node.value.keys, node.value.values):
                chain = attr_chain(key)
                if chain is None or not chain.startswith("MessageKind."):
                    continue
                method = None
                if isinstance(value, ast.Attribute):
                    method = value.attr
                elif isinstance(value, ast.Name):
                    method = value.id
                table[chain.split(".", 1)[1]] = (method, key.lineno)
            return table
    return None


def function_defs(tree, class_name=None):
    """Top-level (or one class's) function definitions, by name."""
    if class_name is not None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                body = node.body
                break
        else:
            return {}
    else:
        body = tree.body
    return {node.name: node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
