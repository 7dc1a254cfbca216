"""Code-hygiene rules for ``src/repro``: static firmware assertions.

The static counterpart of the paper's firmware assertions (§4.2) for the
simulator's own code.  It keeps only the rules whose job no other tier-1
test can do: determinism and the zero-cost telemetry guard are checked
dynamically, by the pinned digests and the purity tests (DESIGN.md §10),
and the coherence protocol by ``repro.cli verify-protocol``.

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

:func:`findings` applies the rules to one module; ``TestRepoIsClean`` is
the gate over every module of ``src/repro``, and the other classes hold
one "bad module" fixture per rule.  Run ``pytest tests/test_hygiene.py``.
Suppress a deliberate exception on its line with
``# repro-lint: disable=<rule>[,<rule>...] — <justification>``.
"""

import ast
import pathlib
import re
import textwrap

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: prefixes whose code executes under the event scheduler
SIM_ZONES = ("sim/", "coherence/", "interconnect/", "recovery/", "node/",
             "hive/", "workloads/", "faults/")

#: packet-handling zones whose emissions must carry causal provenance
CAUSE_ZONES = ("interconnect/", "coherence/", "node/magic.py")

#: modules whose dispatch handlers must return a cost:
#: rel -> (class, handler table or None for ``_handle_*``, extra handlers)
HANDLER_MODULES = {
    "coherence/protocol.py": ("ProtocolEngine", "_HANDLERS", ("handle",)),
    "node/magic.py": ("Magic", None, ()),
}

_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.popen", "socket.socket",
    "socket.create_connection", "input",
})

_BLOCKING_PREFIXES = ("subprocess.", "requests.", "urllib.", "http.")

_PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,-]+)")


def findings(rel, source):
    """Sorted ``(line, rule, message)`` findings of one module.

    ``rel`` is the package-relative posix path (``coherence/protocol.py``)
    that the zones and handler modules key on.  A finding on a line whose
    pragma names its rule is dropped.
    """
    tree = ast.parse(source)
    found = list(_broad_except(tree))
    if rel.startswith(SIM_ZONES):
        found.extend(_sim_blocking(tree))
    if rel.startswith(CAUSE_ZONES):
        found.extend(_telemetry_cause(tree))
    spec = HANDLER_MODULES.get(rel)
    if spec is not None:
        found.extend(_handler_cost(tree, *spec))
    disabled = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is not None:
            disabled[number] = set(match.group(1).split(","))
    return sorted(finding for finding in found
                  if finding[1] not in disabled.get(finding[0], ()))


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
        chain = attr_chain(node)
        if chain is None:
            return None
        base, dot, rest = chain.partition(".")
        return self.names.get(base, base) + dot + rest


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


def handler_table(tree, table_name):
    """The module-level handler dict: kind member -> method name."""
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
                if isinstance(value, ast.Attribute):
                    table[chain.split(".", 1)[1]] = value.attr
                elif isinstance(value, ast.Name):
                    table[chain.split(".", 1)[1]] = value.id
            return table
    return {}


def function_defs(tree, class_name):
    """One class's function definitions, by name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {child.name: child for child in node.body
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))}
    return {}


def _terminates(statements):
    """Does every path through this statement list return/raise?"""
    if not statements:
        return False
    last = statements[-1]
    if isinstance(last, (ast.Return, ast.Raise)):
        return True
    if isinstance(last, ast.If):
        return (bool(last.orelse) and _terminates(last.body)
                and _terminates(last.orelse))
    if isinstance(last, ast.Try):
        closed = _terminates(last.body) and all(
            _terminates(handler.body) for handler in last.handlers)
        return closed or _terminates(last.finalbody)
    if isinstance(last, ast.While) and (
            isinstance(last.test, ast.Constant) and last.test.value):
        # while True exits only via return/raise, unless it breaks
        return not _breaks(last.body)
    return False


def _breaks(statements):
    """Does a ``break`` in this loop body leave the loop?

    A ``break`` in a nested loop's body leaves that loop; one in the
    nested loop's ``else`` leaves this one.
    """
    for node in statements:
        if isinstance(node, ast.Break):
            return True
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            inner = node.orelse
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            continue
        else:
            inner = [child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, ast.expr)]
        if _breaks(inner):
            return True
    return False


def _exception_names(node):
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts
                for name in _exception_names(element)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


# ------------------------------------------------------------------ rules

def _telemetry_cause(tree):
    """Packet-handling emissions must pass ``cause=`` (DESIGN.md §11).

    Forensics rebuilds the blast-radius DAG from ``cause`` edges; an
    emission without one is an invisible hop, and a containment audit can
    then report "contained" on a trace that merely went dark.
    ``cause=None`` states "no causal parent" explicitly and is fine;
    *omitting* the keyword is what the rule rejects.
    """
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"):
            continue
        chain = attr_chain(node.func.value)
        if chain is None or any(keyword.arg == "cause"
                                for keyword in node.keywords):
            continue
        yield (node.lineno, "telemetry-cause",
               "trace emission on %r in packet-handling code does not "
               "pass 'cause=': the forensic DAG (DESIGN.md §11) loses the "
               "causal path through this hop" % chain)


def _sim_blocking(tree):
    """Code under the event scheduler never blocks on the real world: a
    blocking call costs wall time, not virtual time, so no simulated
    outcome shows it."""
    imports = ImportMap(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = imports.resolve(node.func)
        if resolved is None:
            continue
        if resolved == "open" and isinstance(node.func, ast.Name):
            blocking = True
        else:
            blocking = (resolved in _BLOCKING_CALLS
                        or resolved.startswith(_BLOCKING_PREFIXES))
        if blocking:
            yield (node.lineno, "sim-blocking",
                   "%s() blocks on the real world inside simulator-driven "
                   "code; sim processes may only wait on virtual time "
                   "(yield a delay) or events" % resolved)


def _handler_cost(tree, class_name, table_name, extra_handlers):
    """Every dispatch handler returns its cost in ns, and so does every
    method a handler returns the result of: a bare ``return`` or a
    fall-through ``None`` would make MAGIC occupancy vanish from the
    timing model."""
    methods = function_defs(tree, class_name)
    if table_name is not None:
        pending = set(handler_table(tree, table_name).values())
    else:
        pending = {name for name in methods if name.startswith("_handle_")}
    pending |= set(extra_handlers)
    checked = set()
    while pending:
        name = pending.pop()
        function = methods.get(name)
        if function is None or name in checked:
            continue
        checked.add(name)
        owner = function.args.args[0].arg if function.args.args else None
        for node in ast.walk(function):
            if not isinstance(node, ast.Return):
                continue
            value = node.value
            if value is None or (isinstance(value, ast.Constant)
                                 and value.value is None):
                yield (node.lineno, "handler-cost",
                       "handler %s returns no cost here; every dispatch "
                       "handler must return its occupancy in ns for the "
                       "dispatch loop to yield" % name)
            elif (isinstance(value, ast.Call)
                  and isinstance(value.func, ast.Attribute)
                  and isinstance(value.func.value, ast.Name)
                  and value.func.value.id == owner):
                pending.add(value.func.attr)
        if not _terminates(function.body):
            yield (function.lineno, "handler-cost",
                   "handler %s can fall off the end without returning a "
                   "cost; end every path in an explicit 'return <cost>'"
                   % name)


def _broad_except(tree):
    """``except Exception``/``BaseException``/bare ``except`` only at
    crash-isolation boundaries (the campaign worker, the Hive process
    shell), where a simulator bug must become *data*."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            broad = ["<bare>"]
        else:
            broad = sorted(set(_exception_names(node.type))
                           & {"Exception", "BaseException"})
        if broad:
            yield (node.lineno, "broad-except",
                   "except %s swallows model bugs; outside a "
                   "crash-isolation boundary, catch the specific expected "
                   "exception types (suppress with a justification at "
                   "real boundaries)" % ", ".join(broad))


# --------------------------------------------------------------- fixtures

def lint_source(source, rel="sim/bad.py"):
    return findings(rel, textwrap.dedent(source))


def rules_of(found):
    return [rule for _, rule, _ in found]


class TestTelemetryCause:
    def test_emit_without_cause_flagged_in_packet_zone(self):
        found = lint_source("""
            class Router:
                def drop(self, packet):
                    tr = self.trace
                    if tr is not None:
                        tr.emit("pkt", "drop", node=self.router_id)
        """, rel="interconnect/router.py")
        ((_, rule, message),) = found
        assert rule == "telemetry-cause"
        assert "cause" in message

    def test_explicit_cause_none_allowed(self):
        # cause=None states "no causal parent" explicitly; only the
        # *omission* of the keyword hides a hop from the forensic DAG.
        found = lint_source("""
            class Router:
                def drop(self, packet):
                    tr = self.trace
                    if tr is not None:
                        tr.emit("pkt", "drop", node=self.router_id,
                                cause=packet.cause_eid)
        """, rel="interconnect/router.py")
        assert found == []

    def test_rule_covers_magic_and_coherence(self):
        source = """
            class Handler:
                def note(self, magic):
                    tr = magic.trace
                    if tr is not None:
                        tr.emit("protocol", "stray", node=magic.node_id)
        """
        for rel in ("node/magic.py", "coherence/protocol.py"):
            assert rules_of(lint_source(source, rel)) == ["telemetry-cause"]

    def test_non_packet_zones_unaffected(self):
        found = lint_source("""
            class Manager:
                def note(self):
                    tr = self.trace
                    if tr is not None:
                        tr.emit("episode", "begin", node=0)
        """, rel="recovery/manager.py")
        assert found == []


class TestSimHygiene:
    def test_sleep_and_open_flagged_in_sim_zone(self):
        found = lint_source("""
            import time

            def checkpoint(state, path):
                time.sleep(0.1)
                with open(path, "w") as handle:
                    handle.write(state)
        """, rel="sim/engine.py")
        assert rules_of(found) == ["sim-blocking", "sim-blocking"]

    def test_blocking_ignored_outside_sim_zones(self):
        found = lint_source("""
            import subprocess

            def launch(args):
                return subprocess.run(args)
        """, rel="campaign/worker.py")
        assert found == []

    def test_hive_workloads_and_faults_are_sim_zones(self):
        """Hive spawns sim processes, the workloads are generators the
        simulated processors run, and the injector schedules callbacks."""
        source = """
            from time import sleep

            def step(cpu):
                sleep(0.01)
                yield cpu.delay(10)
        """
        for rel in ("hive/os.py", "workloads/pmake.py",
                    "faults/injector.py"):
            assert rules_of(lint_source(source, rel)) == ["sim-blocking"]

    def test_handler_missing_cost_flagged(self):
        found = lint_source("""
            from repro.coherence.messages import MessageKind

            class ProtocolEngine:
                def _home_get(self, packet):
                    if packet.stale:
                        return
                    self.reply(packet)

            _HANDLERS = {MessageKind.GET: ProtocolEngine._home_get}
        """, rel="coherence/protocol.py")
        assert rules_of(found) == ["handler-cost", "handler-cost"]
        messages = sorted(message for _, _, message in found)
        assert any("fall off the end" in m for m in messages)
        assert any("returns no cost" in m for m in messages)

    def test_magic_dispatch_handlers_checked(self):
        found = lint_source("""
            class Magic:
                def _handle_reply(self, packet):
                    self.stats.replies += 1
        """, rel="node/magic.py")
        assert rules_of(found) == ["handler-cost"]

    def test_handler_returning_cost_everywhere_is_clean(self):
        found = lint_source("""
            class Magic:
                def _handle_reply(self, packet):
                    if packet.kind == "nak":
                        return self.params.short_handler_time
                    return self.params.handler_time
        """, rel="node/magic.py")
        assert found == []

    def test_methods_a_handler_returns_are_checked(self):
        """``return self._x(...)`` makes ``_x``'s result the cost, so
        ``_x`` is checked too, and what it returns in turn."""
        found = lint_source("""
            class Magic:
                def _handle_pi(self, request):
                    if request.uncached:
                        return self._pi_uncached(request)
                    return self._pi_cacheable(request)

                def _pi_cacheable(self, request):
                    return self._pi_bus_error(request)

                def _pi_uncached(self, request):
                    return self.params.handler_time

                def _pi_bus_error(self, request):
                    request.fail()

                def _unrelated(self):
                    pass
        """, rel="node/magic.py")
        assert found == [(14, "handler-cost",
                          "handler _pi_bus_error can fall off the end "
                          "without returning a cost; end every path in an "
                          "explicit 'return <cost>'")]

    def test_protocol_table_handler_helpers_are_checked(self):
        found = lint_source("""
            from repro.coherence.messages import MessageKind

            class ProtocolEngine:
                def _home_uc_read(self, packet):
                    return self._home_uncached(packet, is_read=True)

                def _home_uncached(self, packet, is_read):
                    if is_read:
                        return
                    return self.params.handler_time

            _HANDLERS = {MessageKind.UC_READ: ProtocolEngine._home_uc_read}
        """, rel="coherence/protocol.py")
        assert [(line, rule) for line, rule, _ in found] == [
            (10, "handler-cost")]

    def test_while_true_that_breaks_does_not_terminate(self):
        found = lint_source("""
            class Magic:
                def _handle_retry(self, packet):
                    while True:
                        if self.try_send(packet):
                            break
                        yield_cost = 1

                def _handle_drain(self, packet):
                    while True:
                        for entry in packet.entries:
                            if entry.done:
                                break
                        else:
                            break
                        return 1

                def _handle_scan(self, packet):
                    while True:
                        for entry in packet.entries:
                            if entry.done:
                                break
                        if packet.ready:
                            return self.params.handler_time
        """, rel="node/magic.py")
        assert [(line, rule) for line, rule, _ in found] == [
            (3, "handler-cost"), (9, "handler-cost")]

    def test_broad_except_flagged_everywhere(self):
        found = lint_source("""
            def guess(value):
                try:
                    return int(value)
                except Exception:
                    return 0
        """, rel="workloads/parse.py")
        assert rules_of(found) == ["broad-except"]

    def test_bare_except_flagged(self):
        found = lint_source("""
            def guess(value):
                try:
                    return int(value)
                except:
                    return 0
        """, rel="workloads/parse.py")
        assert rules_of(found) == ["broad-except"]

    def test_specific_except_allowed(self):
        found = lint_source("""
            def guess(value):
                try:
                    return int(value)
                except (ValueError, TypeError):
                    return 0
        """, rel="workloads/parse.py")
        assert found == []


class TestSuppressions:
    def test_line_pragma_suppresses_single_rule(self):
        found = lint_source("""
            import time

            def pause():
                time.sleep(0)   # repro-lint: disable=sim-blocking — ok

            def later():
                time.sleep(0)
        """)
        ((line, _, _),) = found
        assert line == 8

    def test_pragma_only_covers_named_rules(self):
        found = lint_source("""
            import time

            def drop(tr):
                tr.emit("pkt", "drop") or time.sleep(0)   # repro-lint: disable=sim-blocking
        """, rel="interconnect/router.py")
        assert rules_of(found) == ["telemetry-cause"]


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        root = PACKAGE.parent.parent
        report = []
        for path in sorted(PACKAGE.rglob("*.py")):
            rel = path.relative_to(PACKAGE).as_posix()
            for line, rule, message in findings(rel, path.read_text()):
                report.append("%s:%d: [%s] %s" % (
                    path.relative_to(root).as_posix(), line, rule, message))
        assert report == [], "\n".join(report)
