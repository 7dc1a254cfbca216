"""Lift the coherence transition system out of the protocol AST.

:mod:`repro.coherence.protocol` *is* a transition table — each handler
is a pile of ``if entry.state == DirState.X`` branches ending in entry
writes, ``lock``/``unlock`` calls and ``send_message`` fan-outs — but it
is written as Python, so nothing can enumerate it.  This pass recovers
the explicit table:

    (MessageKind, guards...) -> (binds, writes, lock/unlock, sends,
                                 occupancy class)

purely from the AST, with no import of the protocol module:

1. helper calls (``_reply_data``, ``_grant_exclusive``,
   ``_complete_pending_from_memory``, ``_home_uncached``, ...) are
   inlined with their arguments substituted, so each handler becomes one
   self-contained function.  Argument expressions that read mutable
   directory-entry state are hoisted into temporaries first — Python
   evaluates call arguments *before* the body runs, and the inlined body
   may mutate the entry (``_grant_exclusive`` unlocks before it writes
   ``owner``), so textual substitution alone would change semantics;
2. the CFG layer (:mod:`repro.verify.cfg`) enumerates every acyclic path;
3. a symbolic interpreter walks each path, canonicalising expressions
   into a small closed vocabulary — guard atoms (``["state", "SHARED"]``,
   ``["firewall_allows"]``), entry writes, lock/unlock, sends, fan-outs
   and binds — that the model explorer (:mod:`repro.verify.model`) can
   execute against abstract configurations.

Reads of mutable entry fields into locals become explicit ``bind`` steps
(slots named ``$x``), preserving evaluation order: e.g.
``_home_sharing_wb`` reads ``entry.pending_requester`` *before*
``unlock()`` clears it, and the extracted path keeps that ordering.

Extraction raises :class:`ExtractionError`, listing every construct it
could not canonicalise: an opaque guard would make the model silently
under-approximate.
"""

import ast
import copy
import json

from repro.lint.core import function_defs, handler_table
from repro.verify.cfg import (FanoutScope, Guard, PathExplosion, Terminal,
                              UnsupportedFlow, build_cfg, fold_constant_test)

#: DirectoryEntry fields the handlers mutate; reading one into a local
#: must become a bind step, and writing one is a ``write`` step.
MUTABLE_ENTRY_FIELDS = frozenset({
    "state", "sharers", "owner", "memory_valid",
    "pending_kind", "pending_requester", "awaiting_acks", "awaiting_put",
})

#: packet payload key -> canonical model name ("value" is renamed so a
#: payload-carried value cannot be confused with a memory read).
PAYLOAD_FIELDS = {
    "line": "line", "requester": "requester", "value": "value_in",
    "home": "home", "address": "address", "page": "page",
    "uc_key": "uc_key", "scrub_key": "scrub_key",
}

ENGINE_CLASS = "ProtocolEngine"

_ENUM_BASES = ("MessageKind", "DirState", "BusErrorKind", "CacheState")

_INLINE_DEPTH_LIMIT = 8


class ExtractionError(Exception):
    """Extraction failed; ``issues`` lists every problem."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("%d extraction issue(s): %s" % (
            len(self.issues),
            "; ".join(str(issue) for issue in self.issues[:5])))


class Issue:
    """One construct the extractor could not canonicalise."""

    __slots__ = ("handler", "lineno", "message")

    def __init__(self, handler, lineno, message):
        self.handler = handler
        self.lineno = lineno
        self.message = message

    def __str__(self):
        return "%s:%d: %s" % (self.handler, self.lineno, self.message)


class Transition:
    """One guarded path through one handler.

    ``items`` is the ordered list of path items, each a plain JSON-able
    list whose first element is a tag:

    ``["guard", atom, polarity]``
        Branch decision; ``atom`` is a recursive guard tree (see the
        module docstring of :mod:`repro.verify.model`).
    ``["bind", "$slot", source]``
        Capture mutable entry state (``entry.owner``,
        ``entry.pending_requester``, ``entry.pending_kind``,
        ``other_sharers``) into a path-local slot at this point.
    ``["write", field, value]`` / ``["sharers_add", value]`` /
    ``["acks_dec"]``
        Directory-entry mutation.
    ``["lock", kind, requester]`` / ``["unlock", state]``
        Entry lock bookkeeping.
    ``["send", dst, kind, payload, delay]``
        One outgoing message.
    ``["fanout", var, iterable, [items...]]``
        Items executed once per element of ``iterable``.
    ``["mem_write", value]`` · ``["cache", op]`` · ``["io", op]`` ·
    ``["scrub"]`` · ``["assert", atom]`` · ``["stray", reason]`` ·
    ``["stat", name]`` · ``["hook", name]``
        Side effects the model tracks or merely records.
    """

    __slots__ = ("kind", "handler", "index", "items", "occupancy")

    def __init__(self, kind, handler, index, items, occupancy):
        self.kind = kind
        self.handler = handler
        self.index = index
        self.items = items
        self.occupancy = occupancy

    def to_dict(self):
        return {"kind": self.kind, "handler": self.handler,
                "path": self.index, "items": self.items,
                "occupancy": self.occupancy}

    @classmethod
    def from_dict(cls, data):
        return cls(kind=data["kind"], handler=data["handler"],
                   index=data["path"], items=data["items"],
                   occupancy=data["occupancy"])

    def __repr__(self):
        return "<Transition %s/%d %s>" % (self.kind, self.index,
                                          self.handler)


class ProtocolModel:
    """The extracted transition system for one protocol module."""

    def __init__(self, transitions, handlers):
        self.transitions = list(transitions)
        self.handlers = dict(handlers)

    def by_kind(self):
        grouped = {}
        for transition in self.transitions:
            grouped.setdefault(transition.kind, []).append(transition)
        return grouped

    def to_spec(self):
        return {
            "version": 1,
            "handlers": {kind: self.handlers[kind]
                         for kind in sorted(self.handlers)},
            "transitions": [transition.to_dict()
                            for transition in self.transitions],
        }

    @classmethod
    def from_spec(cls, data):
        transitions = [Transition.from_dict(entry)
                       for entry in data.get("transitions", ())]
        return cls(transitions, data.get("handlers", {}))


def extract_protocol(tree, max_paths=256):
    """Extract the transition table from a parsed protocol module.

    Returns a :class:`ProtocolModel`; raises :class:`ExtractionError`
    when any path resisted canonicalisation.
    """
    extractor = _Extractor(tree, max_paths=max_paths)
    model = extractor.run()
    if extractor.issues:
        raise ExtractionError(extractor.issues)
    return model


def extract_from_source(source):
    return extract_protocol(ast.parse(source))


# ----------------------------------------------------------------- spec I/O

def load_spec(path):
    with open(path) as handle:
        return json.load(handle)


def write_spec(path, model):
    with open(path, "w") as handle:
        json.dump(model.to_spec(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def spec_diff(old, new):
    """Human-readable drift between two spec dicts (empty = identical)."""
    lines = []
    old_handlers = old.get("handlers", {})
    new_handlers = new.get("handlers", {})
    for kind in sorted(set(old_handlers) | set(new_handlers)):
        before = old_handlers.get(kind)
        after = new_handlers.get(kind)
        if before != after:
            lines.append("handler for %s: %s -> %s"
                         % (kind, before, after))

    def _grouped(spec):
        grouped = {}
        for entry in spec.get("transitions", ()):
            grouped.setdefault(entry["kind"], []).append(entry)
        return grouped

    old_kinds = _grouped(old)
    new_kinds = _grouped(new)
    for kind in sorted(set(old_kinds) | set(new_kinds)):
        before = old_kinds.get(kind, [])
        after = new_kinds.get(kind, [])
        if len(before) != len(after):
            lines.append("%s: %d path(s) -> %d path(s)"
                         % (kind, len(before), len(after)))
        for index in range(min(len(before), len(after))):
            b, a = before[index], after[index]
            if (b["items"], b["occupancy"]) != (a["items"], a["occupancy"]):
                lines.append("%s path %d changed" % (kind, index))
    return lines


def _simplify(atom):
    """Collapse double negations produced by ``is not None`` rewrites."""
    if atom[0] == "not" and atom[1][0] == "not":
        return _simplify(atom[1][1])
    return atom


# ------------------------------------------------------------------ inlining

class _Substitute(ast.NodeTransformer):
    """Replace parameter names with (copies of) caller argument ASTs."""

    def __init__(self, mapping):
        self.mapping = mapping

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.mapping:
            return copy.deepcopy(self.mapping[node.id])
        return node


class _FoldIfExp(ast.NodeTransformer):
    """Fold ``A if <constant> else B`` after literal substitution."""

    def visit_IfExp(self, node):
        self.generic_visit(node)
        folded = fold_constant_test(node.test)
        if folded is None:
            return node
        return node.body if folded else node.orelse


class _Inliner:
    """Expand ``self._helper(...)`` calls into the caller's body."""

    def __init__(self, functions, issues):
        self.functions = functions
        self.issues = issues
        self._temp = 0

    def inline(self, function, handler, depth=0):
        if depth > _INLINE_DEPTH_LIMIT:
            raise UnsupportedFlow("helper inlining exceeded depth %d"
                                  % _INLINE_DEPTH_LIMIT, function.lineno)
        return self._inline_body(function.body, handler, depth)

    def _inline_body(self, body, handler, depth):
        result = []
        for statement in body:
            call = self._helper_call(statement)
            if call is not None:
                result.extend(self._expand(statement, call, handler,
                                           depth))
            elif isinstance(statement, ast.If):
                new = copy.copy(statement)
                new.body = self._inline_body(statement.body, handler,
                                             depth)
                new.orelse = self._inline_body(statement.orelse, handler,
                                               depth)
                result.append(new)
            elif isinstance(statement, ast.For):
                new = copy.copy(statement)
                new.body = self._inline_body(statement.body, handler,
                                             depth)
                result.append(new)
            else:
                result.append(statement)
        return result

    def _helper_call(self, statement):
        """The inlinable ``self._x(...)`` call of a statement, if any."""
        if isinstance(statement, (ast.Expr, ast.Return)):
            value = statement.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and isinstance(value.func.value, ast.Name)
                    and value.func.value.id == "self"
                    and value.func.attr in self.functions
                    and value.func.attr != "_note_stray"
                    and not value.func.attr.startswith("_note_")):
                return value
        return None

    def _expand(self, statement, call, handler, depth):
        name = call.func.attr
        helper = self.functions[name]
        mapping, hoisted = self._bind_arguments(helper, call, handler)
        substituted = []
        transformer = _Substitute(mapping)
        folder = _FoldIfExp()
        for inner in helper.body:
            inner = transformer.visit(copy.deepcopy(inner))
            inner = folder.visit(inner)
            ast.fix_missing_locations(inner)
            substituted.append(inner)
        if isinstance(statement, ast.Expr):
            for inner in substituted:
                if isinstance(inner, ast.Return):
                    self.issues.append(Issue(
                        handler, statement.lineno,
                        "helper %s returns a value but its result is "
                        "discarded; cannot inline" % name))
                    return [statement]
        expanded = self._inline_body(substituted, handler, depth + 1)
        return hoisted + expanded

    def _bind_arguments(self, helper, call, handler):
        """Parameter -> argument AST map, hoisting impure arguments.

        Returns ``(mapping, hoisted_assignments)``.  Impure arguments
        (calls, mutable-entry reads) are evaluated at the call site in
        source order via temporaries, matching Python's call-by-value
        timing.
        """
        params = [arg.arg for arg in helper.args.args if arg.arg != "self"]
        defaults = dict(zip(params[len(params) - len(helper.args.defaults):],
                            helper.args.defaults))
        supplied = dict(zip(params, call.args))
        for keyword in call.keywords:
            supplied[keyword.arg] = keyword.value
        mapping = {}
        hoisted = []
        for param in params:
            arg = supplied.get(param, defaults.get(param))
            if arg is None:
                self.issues.append(Issue(
                    handler, call.lineno,
                    "cannot resolve argument %r of inlined helper" % param))
                arg = ast.Constant(value=None)
            if self._needs_hoist(arg):
                self._temp += 1
                temp = "__arg_%s_%d" % (param, self._temp)
                assign = ast.Assign(
                    targets=[ast.Name(id=temp, ctx=ast.Store())],
                    value=copy.deepcopy(arg))
                ast.copy_location(assign, call)
                ast.fix_missing_locations(assign)
                hoisted.append(assign)
                arg = ast.Name(id=temp, ctx=ast.Load())
            mapping[param] = arg
        return mapping, hoisted

    @staticmethod
    def _needs_hoist(arg):
        if isinstance(arg, ast.Call):
            return True
        if isinstance(arg, ast.Attribute):
            return arg.attr in MUTABLE_ENTRY_FIELDS
        return False


# --------------------------------------------------------------- extraction

class _Opaque(Exception):
    """An expression outside the canonical vocabulary."""

    def __init__(self, node, why):
        self.node = node
        self.why = why
        try:
            text = ast.unparse(node)
        except (ValueError, AttributeError, RecursionError):
            text = repr(node)
        super().__init__("%s (%s)" % (why, text))


class _Extractor:

    def __init__(self, tree, max_paths=256):
        self.tree = tree
        self.max_paths = max_paths
        self.issues = []

    def run(self):
        functions = function_defs(self.tree, ENGINE_CLASS)
        table = handler_table(self.tree)
        if not functions or table is None:
            self.issues.append(Issue(
                "<module>", 1,
                "no %s class or _HANDLERS table found" % ENGINE_CLASS))
            return ProtocolModel([], {})
        transitions = []
        handlers = {}
        for kind in sorted(table):
            method, lineno = table[kind]
            function = functions.get(method)
            if function is None:
                self.issues.append(Issue(
                    kind, lineno,
                    "_HANDLERS maps %s to missing method %s"
                    % (kind, method)))
                continue
            handlers[kind] = method
            transitions.extend(
                self._extract_handler(kind, method, function, functions))
        return ProtocolModel(transitions, handlers)

    def _extract_handler(self, kind, method, function, functions):
        inliner = _Inliner(functions, self.issues)
        try:
            body = inliner.inline(function, method)
        except UnsupportedFlow as exc:
            self.issues.append(Issue(method, exc.lineno, str(exc)))
            return []
        flat = copy.copy(function)
        flat.body = body
        try:
            cfg = build_cfg(flat)
            paths = cfg.paths(max_paths=self.max_paths)
        except (UnsupportedFlow, PathExplosion) as exc:
            self.issues.append(Issue(
                method, getattr(exc, "lineno", function.lineno), str(exc)))
            return []
        transitions = []
        for index, path in enumerate(paths):
            interp = _PathInterpreter(function, method, self.issues)
            items, occupancy = interp.run(path)
            transitions.append(Transition(
                kind=kind, handler=method, index=index, items=items,
                occupancy=occupancy))
        return transitions


class _PathInterpreter:
    """Symbolically execute one enumerated path into canonical items."""

    def __init__(self, function, handler, issues):
        self.handler = handler
        self.issues = issues
        self.items = []
        self.occupancy = None
        # Static environment: local name -> canonical string or an
        # ``@``-prefixed structural marker (engine/magic/payload/...).
        self.env = {"self": "@engine"}
        for name in _ENUM_BASES:
            self.env[name] = "@enum:" + name
        self.env["page_of"] = "@fn:page_of"
        params = [arg.arg for arg in function.args.args
                  if arg.arg != "self"]
        if params:
            self.env[params[0]] = "@packet"
        # Numeric environment for the occupancy accumulator locals.
        self.numeric = {}
        self._slots = set()

    # ------------------------------------------------------------- driving

    def run(self, path):
        for step in path:
            try:
                self._step(step)
            except _Opaque as exc:
                lineno = getattr(exc.node, "lineno", 0)
                self.issues.append(Issue(self.handler, lineno, str(exc)))
        return self.items, self.occupancy or "0"

    def _step(self, step):
        if isinstance(step, Guard):
            self.items.append(
                ["guard", self._atom(step.test), bool(step.polarity)])
        elif isinstance(step, FanoutScope):
            self._fanout(step)
        elif isinstance(step, Terminal):
            self._terminal(step)
        elif isinstance(step, ast.Assign):
            self._assign(step)
        elif isinstance(step, ast.AugAssign):
            self._augassign(step)
        elif isinstance(step, ast.Expr):
            self._expr(step.value)
        elif isinstance(step, (ast.Pass, ast.Raise)):
            pass
        else:
            raise _Opaque(step, "statement outside the handler dialect")

    def _fanout(self, scope):
        iterable = self._canon(scope.iterable)
        saved_items = self.items
        self.items = []
        self.env[scope.target] = scope.target
        for inner in scope.body:
            self._step(inner)
        body_items = self.items
        self.items = saved_items
        del self.env[scope.target]
        self.items.append(["fanout", scope.target, iterable, body_items])

    def _terminal(self, terminal):
        value = terminal.value
        if value is None:
            if not terminal.implicit:
                self.occupancy = "0"
            else:
                raise _Opaque(
                    ast.Constant(value=None),
                    "handler path falls off the end without a return")
            return
        self.occupancy = self._occupancy(value)

    def _occupancy(self, node):
        canonical = self._canon(node)
        if canonical == "0":
            return "0"
        parts = canonical.split("+")
        if all(part.startswith("params.") for part in parts):
            return "+".join(part[len("params."):] for part in parts)
        raise _Opaque(node, "return value is not an occupancy class")

    # ---------------------------------------------------------- statements

    def _assign(self, statement):
        if len(statement.targets) != 1:
            raise _Opaque(statement, "multiple assignment targets")
        target = statement.targets[0]
        if isinstance(target, ast.Name):
            self._assign_name(target.id, statement.value)
        elif isinstance(target, ast.Attribute):
            self._assign_attribute(target, statement.value)
        else:
            raise _Opaque(statement, "unsupported assignment target")

    def _assign_name(self, name, value):
        # Structural aliases first.
        marker = self._structural(value)
        if marker is not None:
            self.env[name] = marker
            return
        # Occupancy accumulators: params.* reads and numeric literals.
        canonical, impure = self._rhs(name, value)
        if canonical.startswith("params."):
            self.numeric[name] = [canonical[len("params."):]]
            self.env[name] = "@numeric:" + name
            return
        if canonical == "0":
            self.numeric[name] = []
            self.env[name] = "@numeric:" + name
            return
        self.env[name] = canonical
        if impure:
            self.items.append(["bind", canonical, impure])

    def _structural(self, value):
        """Marker when the rhs is a structural alias, else None."""
        try:
            canonical = self._canon(value, structural=True)
        except _Opaque:
            return None
        if canonical in ("@magic", "@payload", "@entry", "@params"):
            return canonical
        return None

    def _rhs(self, name, value):
        """Canonical for an rhs; returns ``(canonical, bind_source)``.

        ``bind_source`` is non-None when the read captures mutable entry
        state and must become an explicit bind step; the canonical is
        then the fresh ``$slot`` name.
        """
        source = self._mutable_read(value)
        if source is not None:
            if name.startswith("__arg_"):
                # Hoisted helper argument: slot after the parameter name.
                slot = "$" + name[len("__arg_"):].rsplit("_", 1)[0]
            else:
                slot = "$" + name
            base = slot
            index = 2
            while slot in self._slots:
                slot = "%s%d" % (base, index)
                index += 1
            self._slots.add(slot)
            return slot, source
        # Effectful reads bind fresh result names without entry state.
        effect = self._effect_read(value)
        if effect is not None:
            return effect, None
        return self._canon(value), None

    def _mutable_read(self, value):
        """Canonical bind source when rhs reads mutable entry state."""
        if isinstance(value, ast.Attribute):
            try:
                base = self._canon(value.value, structural=True)
            except _Opaque:
                return None
            if base == "@entry" and value.attr in MUTABLE_ENTRY_FIELDS:
                return "entry." + value.attr
            return None
        if (isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.Sub)):
            left = self._mutable_read(value.left)
            if (left == "entry.sharers"
                    and isinstance(value.right, ast.Set)
                    and len(value.right.elts) == 1
                    and self._canon(value.right.elts[0]) == "requester"):
                return "other_sharers"
        return None

    def _effect_read(self, value):
        """Canonical result name for effectful rhs calls, emitting the
        side-effect item; None when the rhs is pure."""
        if isinstance(value, ast.IfExp):
            # ``cache.op(line) if magic.cache else None`` — the model
            # assumes caches exist, so take the cache branch.
            test_atom = self._atom(value.test)
            if test_atom == ["has_cache"]:
                return self._effect_read(value.body)
            raise _Opaque(value, "conditional expression with a "
                                 "non-cache test")
        if not isinstance(value, ast.Call):
            return None
        callee = self._callee(value)
        if callee in ("cache.downgrade", "cache.invalidate"):
            self.items.append(["cache", callee.split(".")[1]])
            return "cache_value"
        if callee == "cache.state_of":
            return "cache_state"
        if callee == "magic.scrub_page":
            self.items.append(["scrub"])
            return "scrub_result"
        if callee == "io_device.read":
            self.items.append(["io", "read"])
            return "io_value"
        return None

    def _assign_attribute(self, target, value):
        base = self._canon(target.value, structural=True)
        if base != "@entry":
            raise _Opaque(target, "attribute write outside the directory "
                                  "entry")
        if target.attr not in MUTABLE_ENTRY_FIELDS:
            raise _Opaque(target, "write to unknown entry field")
        self.items.append(["write", target.attr, self._value(value)])

    def _augassign(self, statement):
        target = statement.target
        if isinstance(target, ast.Attribute):
            base = self._canon(target.value, structural=True)
            if (base == "@entry" and target.attr == "awaiting_acks"
                    and isinstance(statement.op, ast.Sub)
                    and isinstance(statement.value, ast.Constant)
                    and statement.value.value == 1):
                self.items.append(["acks_dec"])
                return
            if base == "@magic.stats" and isinstance(statement.op, ast.Add):
                self.items.append(["stat", target.attr])
                return
            raise _Opaque(statement, "unsupported augmented assignment")
        if isinstance(target, ast.Name) and isinstance(statement.op,
                                                       ast.Add):
            terms = self.numeric.get(target.id)
            if terms is None:
                raise _Opaque(statement, "augmented add on a non-"
                                         "accumulator local")
            canonical = self._canon(statement.value)
            if canonical.startswith("params."):
                terms.append(canonical[len("params."):])
            elif canonical != "0":
                terms.extend(part for part in canonical.split("+") if part)
            return
        raise _Opaque(statement, "unsupported augmented assignment")

    def _expr(self, value):
        if not isinstance(value, ast.Call):
            if isinstance(value, ast.Constant):
                return  # docstring
            raise _Opaque(value, "expression statement outside the "
                                 "handler dialect")
        callee = self._callee(value)
        if callee == "entry.lock":
            self.items.append(["lock",
                               self._enum_member(value.args[0],
                                                 "MessageKind"),
                               self._value(value.args[1])])
        elif callee == "entry.unlock":
            self.items.append(["unlock",
                               self._enum_member(value.args[0],
                                                 "DirState")])
        elif callee == "entry.sharers.add":
            self.items.append(["sharers_add", self._value(value.args[0])])
        elif callee == "magic.send_message":
            self._send(value)
        elif callee == "memory.write_line":
            self.items.append(["mem_write", self._value(value.args[1])])
        elif callee == "magic.firmware_assert":
            self.items.append(["assert", self._atom(value.args[0])])
        elif callee in ("cache.invalidate", "cache.downgrade"):
            self.items.append(["cache", callee.split(".")[1]])
        elif callee == "io_device.write":
            self.items.append(["io", "write"])
        elif callee == "engine._note_stray":
            reason = value.args[1]
            self.items.append(
                ["stray", reason.value if isinstance(reason, ast.Constant)
                 else self._value(reason)])
        elif callee.startswith("hooks."):
            self.items.append(["hook", callee.split(".", 1)[1]])
        else:
            raise _Opaque(value, "call outside the handler dialect")

    def _send(self, call):
        dst = self._value(call.args[0])
        kind = self._enum_member(call.args[1], "MessageKind")
        payload = {}
        if len(call.args) > 2:
            node = call.args[2]
            if not isinstance(node, ast.Dict):
                raise _Opaque(node, "send payload is not a literal dict")
            for key, value in zip(node.keys, node.values):
                if not isinstance(key, ast.Constant):
                    raise _Opaque(node, "non-constant payload key")
                payload[key.value] = self._value(value)
        delay = "0"
        for keyword in call.keywords:
            if keyword.arg == "delay":
                delay = self._value(keyword.value)
            else:
                raise _Opaque(call, "unknown send_message keyword %r"
                              % keyword.arg)
        self.items.append(["send", dst, kind, payload, delay])

    # -------------------------------------------------------------- atoms

    def _atom(self, test):
        return _simplify(self._atom_raw(test))

    def _atom_raw(self, test):
        """Canonical guard tree for a branch test."""
        if isinstance(test, ast.BoolOp):
            tag = "and" if isinstance(test.op, ast.And) else "or"
            return [tag, [self._atom(value) for value in test.values]]
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return ["not", self._atom(test.operand)]
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            return self._compare_atom(test)
        if isinstance(test, ast.Call):
            return self._call_atom(test)
        if isinstance(test, (ast.Name, ast.Attribute)):
            canonical = self._canon(test, structural=True)
            if canonical == "@magic.firewall_enabled":
                return ["firewall_enabled"]
            if canonical == "@magic.cache":
                return ["has_cache"]
            if canonical.startswith("entry."):
                field = canonical[len("entry."):]
                if field in ("awaiting_put", "memory_valid"):
                    return ["entry_flag", field]
            if canonical.startswith("$"):
                return ["bind_truthy", canonical]
        raise _Opaque(test, "guard outside the canonical vocabulary")

    def _compare_atom(self, test):
        op = test.ops[0]
        left, right = test.left, test.comparators[0]
        negate = isinstance(op, (ast.NotEq, ast.IsNot, ast.NotIn))
        atom = self._compare_core(op, left, right)
        return ["not", atom] if negate else atom

    def _compare_core(self, op, left, right):
        lc = self._canon_soft(left, structural=True)
        rc = self._canon_soft(right, structural=True)
        if isinstance(op, (ast.Eq, ast.NotEq)):
            if lc == "entry.state" and rc and rc.startswith("DirState."):
                return ["state", rc.split(".", 1)[1]]
            if (lc == "entry.pending_kind"
                    and rc and rc.startswith("MessageKind.")):
                return ["pending_kind", rc.split(".", 1)[1]]
            if lc == "entry.owner":
                return ["owner_is", self._value(right)]
            if rc == "self":
                return ["is_home", self._value(left)]
            if (lc and lc.startswith("$")
                    and rc and rc.startswith("MessageKind.")):
                return ["bind_is", lc, rc]
            if lc == "cache_state" and rc and rc.startswith("CacheState."):
                return ["cache_state", rc.split(".", 1)[1]]
        if isinstance(op, (ast.Is, ast.IsNot)) and rc == "None":
            if lc == "@entry":
                return ["entry_missing"]
            if lc == "cache_value":
                return ["cache_miss"]
            if lc == "@magic.cache":
                return ["not", ["has_cache"]]
        if isinstance(op, (ast.In, ast.NotIn)):
            if rc == "@magic.failure_unit":
                return ["in_failure_unit", self._value(left)]
        if (isinstance(op, ast.Gt) and lc == "entry.awaiting_acks"
                and rc == "0"):
            return ["acks_remaining"]
        raise _Opaque(ast.Compare(left=left, ops=[op], comparators=[right]),
                      "comparison outside the canonical vocabulary")

    def _call_atom(self, call):
        callee = self._callee(call)
        if callee == "magic.firmware_assert":
            return ["fw_assert", self._atom(call.args[0])]
        if callee == "magic.firewall_allows":
            return ["firewall_allows"]
        if callee == "address_map.is_magic_region":
            return ["magic_region", self._value(call.args[0])]
        if callee == "address_map.is_io_region":
            return ["io_region", self._value(call.args[0])]
        if callee == "directory.owns":
            return ["owns", self._value(call.args[0])]
        raise _Opaque(call, "call guard outside the canonical vocabulary")

    # ------------------------------------------------------- canonical names

    def _callee(self, call):
        """Short canonical for a call's function, e.g. ``entry.lock``."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            name = func.id if isinstance(func, ast.Name) else None
            resolved = self.env.get(name, name)
            if resolved and resolved.startswith("@fn:"):
                return resolved[len("@fn:"):]
            if name in ("sorted", "len", "set"):
                return name
            raise _Opaque(call, "call to an unknown function")
        base = self._canon_soft(func.value, structural=True)
        mapping = {
            "@entry": "entry", "@magic": "magic",
            "@magic.directory": "directory", "@magic.memory": "memory",
            "@magic.cache": "cache", "@magic.address_map": "address_map",
            "@magic.hooks": "hooks", "@magic.io_device": "io_device",
            "@payload": "payload", "@engine": "engine",
        }
        if base in mapping:
            return mapping[base] + "." + func.attr
        if base == "entry.sharers":
            return "entry.sharers." + func.attr
        raise _Opaque(call, "call on an unknown receiver")

    def _enum_member(self, node, enum_name):
        canonical = self._canon(node)
        prefix = enum_name + "."
        if canonical.startswith(prefix):
            return canonical[len(prefix):]
        raise _Opaque(node, "expected a %s member" % enum_name)

    def _value(self, node):
        """Canonical for a value position (send payload, write rhs)."""
        return self._canon(node)

    def _canon_soft(self, node, structural=False):
        try:
            return self._canon(node, structural=structural)
        except _Opaque:
            return None

    def _canon(self, node, structural=False):
        """Canonical string for an expression.

        With ``structural=True`` the ``@``-markers (``@entry`` etc.) are
        returned as-is; otherwise a bare structural marker is opaque.
        """
        result = self._canon_inner(node)
        if not structural and result.startswith("@"):
            if result.startswith("@numeric:"):
                name = result[len("@numeric:"):]
                terms = self.numeric.get(name, [])
                return "+".join("params." + term for term in terms) or "0"
            raise _Opaque(node, "structural value in a data position")
        return result

    def _canon_inner(self, node):
        if isinstance(node, ast.Constant):
            value = node.value
            if value is None:
                return "None"
            if value is True:
                return "True"
            if value is False:
                return "False"
            if isinstance(value, str):
                return "'%s'" % value
            if isinstance(value, (int, float)):
                return "0" if not value else repr(value)
            raise _Opaque(node, "unsupported constant")
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            raise _Opaque(node, "unknown local name")
        if isinstance(node, ast.Attribute):
            return self._canon_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._canon_subscript(node)
        if isinstance(node, ast.Call):
            return self._canon_call(node)
        if isinstance(node, ast.Set):
            return "{%s}" % ", ".join(self._value(elt)
                                      for elt in node.elts)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            return "(%s - %s)" % (self._canon(node.left),
                                  self._canon(node.right))
        raise _Opaque(node, "expression outside the canonical vocabulary")

    def _canon_attribute(self, node):
        base = self._canon_inner(node.value)
        attr = node.attr
        if base == "@engine":
            if attr == "magic":
                return "@magic"
            if attr == "params":
                return "@params"
            raise _Opaque(node, "unknown engine attribute")
        if base == "@packet":
            if attr == "src":
                return "src"
            if attr == "payload":
                return "@payload"
            if attr == "kind":
                return "@packet.kind"
            raise _Opaque(node, "unknown packet attribute")
        if base == "@magic":
            if attr == "node_id":
                return "self"
            return "@magic." + attr
        if base == "@params":
            return "params." + attr
        if base == "@entry":
            return "entry." + attr
        if base.startswith("@enum:"):
            return "%s.%s" % (base[len("@enum:"):], attr)
        if base.startswith("@magic."):
            return base + "." + attr
        raise _Opaque(node, "attribute outside the canonical vocabulary")

    def _canon_subscript(self, node):
        base = self._canon_inner(node.value)
        if base != "@payload":
            raise _Opaque(node, "subscript outside the packet payload")
        key = node.slice
        if isinstance(key, ast.Constant) and key.value in PAYLOAD_FIELDS:
            return PAYLOAD_FIELDS[key.value]
        raise _Opaque(node, "unknown payload field")

    def _canon_call(self, node):
        callee = self._callee(node)
        if callee == "memory.read_line":
            return "memory[%s]" % self._canon(node.args[0])
        if callee == "page_of":
            return "page"
        if callee == "sorted":
            return self._canon(node.args[0])
        if callee == "len":
            return "len(%s)" % self._canon(node.args[0])
        if callee == "set":
            if node.args:
                raise _Opaque(node, "set() with arguments")
            return "{}"
        if callee == "payload.get":
            key = node.args[0]
            if (isinstance(key, ast.Constant)
                    and key.value in PAYLOAD_FIELDS):
                return PAYLOAD_FIELDS[key.value]
            raise _Opaque(node, "unknown payload field")
        if callee == "address_map.line_address":
            return "line_of(%s)" % self._canon(node.args[0])
        if callee == "address_map.io_region_start":
            return "io_base"
        if callee in ("directory.entry", "directory.peek"):
            return "@entry"
        raise _Opaque(node, "call outside the canonical vocabulary")
