"""Checker framework: findings, modules and suppressions.

The linter is the static half of the paper's firmware assertions (§4.2):
instead of catching an invariant violation at dispatch time, each checker
proves a class of violation absent from the source before the simulator
ever runs.  The framework is deliberately small:

* a :class:`Finding` is one violation at ``path:line`` with a rule name;
  every rule is an error;
* a :class:`Module` is one parsed source file; a :class:`Project` is the
  sorted set of modules one run lints;
* ``# repro-lint: disable=<rule>[,<rule>...]`` on the offending line
  suppresses findings on that line, and is meant to carry a
  justification in the rest of the comment.

Nothing is grandfathered: the tree lints clean and CI fails on any
finding.
"""

import ast
import re


class Finding:
    """One rule violation at a source location."""

    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    @property
    def location(self):
        return "%s:%d" % (self.path, self.line)

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def __eq__(self, other):
        return (isinstance(other, Finding)
                and self.to_dict() == other.to_dict())

    def __repr__(self):
        return "<Finding %s %s %s>" % (self.rule, self.location,
                                       self.message)


_PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,-]+)")


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
        for number, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA.search(text)
            if match is not None:
                self.line_disables[number] = {
                    rule.strip() for rule in match.group(1).split(",")
                    if rule.strip()}

    def in_zone(self, zones):
        return any(self.rel.startswith(zone) for zone in zones)

    def suppresses(self, finding):
        rules = self.line_disables.get(finding.line, ())
        return "all" in rules or finding.rule in rules


class Project:
    """The modules under lint, in package-relative path order."""

    def __init__(self, modules):
        self.modules = sorted(modules, key=lambda module: module.rel)


class Checker:
    """Base class: one visitor run over every module.

    ``rules`` names every rule the checker may report: the registry
    ``repro.lint.all_rules()`` is their union.
    """

    rules = ()

    def finding(self, rule, module, line, message):
        assert rule in self.rules, rule
        return Finding(rule=rule, path=module.path, line=line,
                       message=message)

    def check_module(self, module):
        return ()


# ------------------------------------------------------------- AST helpers

class ImportMap:
    """Resolves names through a module's imports to dotted origins.

    ``import time`` makes ``time.sleep`` resolve to itself;
    ``from subprocess import run`` makes ``run`` resolve to
    ``subprocess.run``; unimported bases resolve to their literal
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
