"""Sim-process hygiene: the event loop stays virtual-time and total.

Four rules keep the simulated hardware and its evidence honest:

* ``sim-blocking`` — code that runs under the event scheduler (the sim
  kernel and the hardware models it drives) must never block on the real
  world: no ``time.sleep``, file/socket/subprocess I/O, or console input.
  A blocking call costs wall time, not virtual time, so no simulated
  outcome shows it: only the lint can;
* ``handler-cost`` — every protocol/dispatch handler returns its cost in
  nanoseconds (the dispatch loop ``yield``\\ s it back to the scheduler);
  a bare ``return`` or a fall-through ``None`` would make MAGIC occupancy
  silently vanish from the timing model;
* ``broad-except`` — ``except Exception``/``BaseException``/bare
  ``except`` may exist only at crash-isolation boundaries (the campaign
  worker, the Hive process shell), where a simulator bug must become
  *data*.  Anywhere else it converts a model bug into silent control
  flow; catch the specific expected types instead;
* ``telemetry-cause`` — packet-handling trace emissions name their causal
  parent (:class:`TelemetryCauseChecker`).
"""

import ast

from repro.lint.core import (Checker, ImportMap, attr_chain, function_defs,
                             handler_table)

#: prefixes whose code executes under the event scheduler
SIM_ZONES = ("sim/", "coherence/", "interconnect/", "recovery/", "node/")

#: modules whose dispatch handlers must return a cost
HANDLER_MODULES = {
    "coherence/protocol.py": ("ProtocolEngine", "_HANDLERS", ("handle",)),
    "node/magic.py": ("Magic", None, ()),
}

_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.popen", "socket.socket",
    "socket.create_connection", "input",
})

_BLOCKING_PREFIXES = ("subprocess.", "requests.", "urllib.", "http.")


class HygieneChecker(Checker):

    rules = ("sim-blocking", "handler-cost", "broad-except")

    sim_zones = SIM_ZONES
    handler_modules = HANDLER_MODULES

    def check_module(self, module):
        yield from self._check_broad_except(module)
        if module.in_zone(self.sim_zones):
            yield from self._check_blocking(module)
        spec = self.handler_modules.get(module.rel)
        if spec is not None:
            yield from self._check_handler_costs(module, *spec)

    # ------------------------------------------------------------- blocking

    def _check_blocking(self, module):
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
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
                yield self.finding(
                    "sim-blocking", module, node.lineno,
                    "%s() blocks on the real world inside simulator-driven "
                    "code; sim processes may only wait on virtual time "
                    "(yield a delay) or events" % resolved)

    # --------------------------------------------------------- handler cost

    def _check_handler_costs(self, module, class_name, table_name,
                             extra_handlers):
        methods = function_defs(module.tree, class_name)
        names = set(extra_handlers)
        if table_name is not None:
            table = handler_table(module.tree, table_name) or {}
            names |= {method for method, _ in table.values()
                      if method is not None}
        else:
            names |= {name for name in methods
                      if name.startswith("_handle_")}
        for name in sorted(names):
            function = methods.get(name)
            if function is None:
                continue
            yield from self._check_one_handler(module, function)

    def _check_one_handler(self, module, function):
        for node in ast.walk(function):
            if isinstance(node, ast.Return) and (
                    node.value is None
                    or (isinstance(node.value, ast.Constant)
                        and node.value.value is None)):
                yield self.finding(
                    "handler-cost", module, node.lineno,
                    "handler %s returns no cost here; every dispatch "
                    "handler must return its occupancy in ns for the "
                    "dispatch loop to yield" % function.name)
        if not _terminates(function.body):
            yield self.finding(
                "handler-cost", module, function.lineno,
                "handler %s can fall off the end without returning a "
                "cost; end every path in an explicit 'return <cost>'"
                % function.name)

    # --------------------------------------------------------- broad except

    def _check_broad_except(self, module):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _exception_names(node.type)
            broad = sorted(set(names) & {"Exception", "BaseException"})
            if node.type is None:
                broad = ["<bare>"]
            if not broad:
                continue
            yield self.finding(
                "broad-except", module, node.lineno,
                "except %s swallows model bugs; outside a crash-isolation "
                "boundary, catch the specific expected exception types "
                "(suppress with a justification at real boundaries)"
                % ", ".join(broad))


def _exception_names(node):
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        names = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


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
    if isinstance(last, (ast.While,)) and (
            isinstance(last.test, ast.Constant) and last.test.value):
        return True   # while True loops exit only via return/raise
    return False


#: packet-handling zones whose emissions must carry causal provenance
CAUSE_ZONES = ("interconnect/", "coherence/", "node/magic.py")


class TelemetryCauseChecker(Checker):
    """Causal-provenance rule (DESIGN.md §11): packet-handling emissions
    must pass ``cause=``.

    Forensics reconstructs the blast-radius DAG from ``cause`` edges.  An
    emission without one in the interconnect, the coherence protocol or the
    MAGIC handler code is an invisible hop: the DAG silently loses the
    propagation path through it, and a containment audit can then report
    "contained" on a trace that merely went dark.  ``cause=None`` is fine —
    it states "this event has no causal parent" explicitly; *omitting* the
    keyword is what the rule rejects.
    """

    rules = ("telemetry-cause",)

    zones = CAUSE_ZONES

    def check_module(self, module):
        if not module.in_zone(self.zones):
            return
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                continue
            chain = attr_chain(node.func.value)
            if chain is None or any(keyword.arg == "cause"
                                    for keyword in node.keywords):
                continue
            yield self.finding(
                "telemetry-cause", module, node.lineno,
                "trace emission on %r in packet-handling code does not "
                "pass 'cause=': the forensic DAG (DESIGN.md §11) loses the "
                "causal path through this hop" % chain)
