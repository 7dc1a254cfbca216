"""No ``src/`` code that only tests reach.

A name-level AST scan over the repository.  It reports three kinds of
finding in ``src/``:

* ``def``: a ``def``, a ``class`` or a module-level assignment whose
  name nothing in ``src/``, ``benchmarks/`` or ``examples/`` references.
  A reference is a name read, an attribute, or a string literal equal to
  the name: ``getattr`` reads count, and so does a package's ``__all__``,
  which is its public API.
* ``state``: a ``self.X`` that is stored but never loaded anywhere, tests
  included.  A ``__slots__`` entry declares a slot; it does not read it.
* ``import``: an import that its module never uses, outside
  ``__init__.py`` (where imports are the package's exports).

Anything kept on purpose goes in ``ALLOWED`` with its reason; an entry
that no longer matches a finding fails the gate too.
"""

import ast
import pathlib
import time
from typing import NamedTuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (kind, qualified name) -> why it stays.
ALLOWED = {
    ("def", "Network.true_surviving_adjacency"):
        "ROADMAP item 2: the oracle's ground-truth surviving component "
        "is a BFS over it",
    ("def", "SpeculativeStore"):
        "the op of the section 3.3 firewall tests; nothing in the "
        "simulated workloads issues speculative stores",
    ("state", "RouterStats.dropped_intermittent"):
        "summarize_run reads it through getattr(stats, 'dropped_' + reason)",
}


class Finding(NamedTuple):
    kind: str
    name: str
    path: str
    line: int

    def __str__(self):
        return "%s:%d: %s %s" % (self.path, self.line, self.kind, self.name)


class _Index:
    """What one module defines, stores on ``self``, imports and mentions.

    One pass over the tree: the gate parses every module of the repository
    and has to stay well under two seconds.
    """

    def __init__(self, tree):
        self.names = set()     # names read, attributes, string literals
        self.loads = set()     # attributes loaded, and string literals
        self.defs = []         # (qualified name, name, line)
        self.stores = []       # (Class.attr, attr, line) of self.attr = ...
        self.imports = []      # (imported name, bound name, line)
        stack = [(tree, "", None)]
        while stack:
            node, prefix, cls = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner, inner_cls = prefix, cls
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    self.defs.append(
                        (prefix + child.name, child.name, child.lineno))
                    inner = prefix + child.name + "."
                    if isinstance(child, ast.ClassDef):
                        inner_cls = child.name
                elif isinstance(child, ast.Name):
                    if not isinstance(child.ctx, ast.Store):
                        self.names.add(child.id)
                elif isinstance(child, ast.Attribute):
                    self.names.add(child.attr)
                    if isinstance(child.ctx, ast.Load):
                        self.loads.add(child.attr)
                    elif (cls is not None and isinstance(child.value, ast.Name)
                          and child.value.id == "self"):
                        self.stores.append(
                            (cls + "." + child.attr, child.attr, child.lineno))
                elif (isinstance(child, ast.Constant)
                      and isinstance(child.value, str)):
                    self.names.add(child.value)
                    self.loads.add(child.value)
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    if getattr(child, "module", None) != "__future__":
                        for alias in child.names:
                            self.imports.append((
                                alias.name,
                                alias.asname or alias.name.split(".")[0],
                                child.lineno))
                elif (isinstance(child, ast.Assign) and any(
                        isinstance(target, ast.Name)
                        and target.id == "__slots__"
                        for target in child.targets)):
                    continue   # a declaration, not a read of each slot
                stack.append((child, inner, inner_cls))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                self.defs.extend((target.id, target.id, node.lineno)
                                 for target in node.targets
                                 if isinstance(target, ast.Name))


def _modules(root, top):
    for path in sorted((root / top).rglob("*.py")):
        yield (path.relative_to(root).as_posix(),
               _Index(ast.parse(path.read_text())))


def _line(entry):
    return entry[-1]


def scan(root=ROOT):
    """Every finding in ``root/src``, one per (kind, name), sorted."""
    src = list(_modules(root, "src"))
    reached, loaded = set(), set()
    for top in ("src", "benchmarks", "examples", "tests"):
        for _, index in (src if top == "src" else _modules(root, top)):
            if top != "tests":
                reached |= index.names
            loaded |= index.loads
    findings = {}
    for path, index in src:
        for qualname, name, line in sorted(index.defs, key=_line):
            if not name.startswith("__") and name not in reached:
                findings.setdefault(("def", qualname, None), (path, line))
        for qualname, name, line in sorted(index.stores, key=_line):
            if name not in loaded:
                findings.setdefault(("state", qualname, None), (path, line))
        if not path.endswith("__init__.py"):
            for name, bound, line in index.imports:
                if bound not in index.names:
                    findings.setdefault(("import", name, path), (path, line))
    return sorted((Finding(kind, name, path, line)
                   for (kind, name, _), (path, line) in findings.items()),
                  key=lambda f: (f.path, f.line, f.name))


def unexplained(findings, allowed=ALLOWED):
    return [f for f in findings if (f.kind, f.name) not in allowed]


def stale(findings, allowed=ALLOWED):
    found = {(f.kind, f.name) for f in findings}
    return sorted(key for key in allowed if key not in found)


@pytest.fixture(scope="module")
def tree_findings():
    start = time.perf_counter()
    findings = scan()
    return findings, time.perf_counter() - start


def test_no_src_code_that_only_tests_reach(tree_findings):
    findings, _ = tree_findings
    assert not unexplained(findings), (
        "delete it, give it a caller in src/, or add it to ALLOWED with "
        "its reason:\n" + "\n".join(map(str, unexplained(findings))))


def test_allow_list_is_not_stale(tree_findings):
    findings, _ = tree_findings
    assert not stale(findings), stale(findings)


def test_scan_is_fast(tree_findings):
    _, seconds = tree_findings
    assert seconds < 2.0, seconds


class TestScanSeeds:
    """Each kind of finding, seeded into a two-file tree."""

    @staticmethod
    def tree(tmp_path, src, test="import pkg\n"):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "mod.py").write_text(src)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(test)
        return scan(tmp_path)

    def test_clean_tree(self, tmp_path):
        assert self.tree(tmp_path, "def used():\n    return used\n") == []

    def test_test_only_def(self, tmp_path):
        findings = self.tree(
            tmp_path, "class Box:\n    def peek(self):\n        pass\n"
                      "Box()\n",
            test="from pkg.mod import Box\nBox().peek()\n")
        assert [(f.kind, f.name) for f in findings] == [("def", "Box.peek")]

    def test_unread_module_constant(self, tmp_path):
        findings = self.tree(tmp_path, "LIMIT = 3\nSPARE = 4\nprint(LIMIT)\n")
        assert [(f.kind, f.name) for f in findings] == [("def", "SPARE")]

    def test_string_literal_is_a_reference(self, tmp_path):
        assert self.tree(
            tmp_path, "def hook():\n    pass\ngetattr(None, 'hook')\n") == []

    def test_write_only_state(self, tmp_path):
        findings = self.tree(
            tmp_path, "class Box:\n    def __init__(self):\n"
                      "        self.count = 0\n        self.seen = 1\n"
                      "        self.count += self.seen\nBox()\n")
        assert [(f.kind, f.name) for f in findings] == [
            ("state", "Box.count")]

    def test_unused_import(self, tmp_path):
        findings = self.tree(
            tmp_path, "import os\nfrom json import dumps, loads\n"
                      "loads(os.sep)\n")
        assert [(f.kind, f.name) for f in findings] == [("import", "dumps")]

    def test_stale_allow_list_entry(self, tmp_path):
        findings = self.tree(tmp_path, "def used():\n    return used\n")
        assert stale(findings, {("def", "gone"): "reason"}) == [
            ("def", "gone")]
