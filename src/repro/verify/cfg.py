"""Per-handler control-flow graphs over the protocol AST.

The extraction pass (:mod:`repro.verify.extract`) needs to reason about
*paths* through a handler — which guards were taken, in what order the
directory entry was mutated, which messages left before the return.  This
module turns one ``ast.FunctionDef`` into a small explicit CFG and
enumerates its acyclic entry→return paths:

* a :class:`Block` is a run of straight-line statements;
* edges carry an optional guard ``(test-expr, polarity)`` — the branch of
  an ``if`` taken when the test evaluates to ``polarity``;
* a ``for`` loop is folded to its fan-out form: the body executes once,
  inside a :class:`FanoutScope`, which is exactly the multiplicity the
  protocol uses (``for sharer in sorted(others): send(...)`` — zero
  iterations is the degenerate empty fan-out, so no skip edge is needed);
* constant tests (which appear after helper inlining substitutes literal
  arguments, e.g. ``is_read=True``) are folded so dead branches never
  produce phantom transitions.

The builder is deliberately restricted to the statement forms the
protocol handlers use.  Anything outside that dialect — ``while``,
``try``, ``with``, ``match`` — raises :class:`UnsupportedFlow`, which the
extractor reports as an extraction issue instead of guessing.
"""

import ast


class UnsupportedFlow(Exception):
    """The function uses control flow the protocol dialect excludes."""

    def __init__(self, message, lineno=0):
        super().__init__(message)
        self.lineno = lineno


class PathExplosion(Exception):
    """Path enumeration exceeded the caller's budget."""


class Guard:
    """One branch decision: ``test`` evaluated to ``polarity``."""

    __slots__ = ("test", "polarity", "lineno")

    def __init__(self, test, polarity, lineno):
        self.test = test
        self.polarity = polarity
        self.lineno = lineno

    def __repr__(self):
        return "<Guard %s=%s @%d>" % (
            ast.unparse(self.test), self.polarity, self.lineno)


class FanoutScope:
    """Marks statements executing once per element of a loop iterable."""

    __slots__ = ("target", "iterable", "body", "lineno")

    def __init__(self, target, iterable, body, lineno):
        self.target = target          # loop variable name
        self.iterable = iterable      # iterable expression (AST)
        self.body = body              # list of path steps
        self.lineno = lineno

    def __repr__(self):
        return "<Fanout %s in %s>" % (self.target,
                                      ast.unparse(self.iterable))


class Terminal:
    """Path end: the handler returned ``value`` (an AST expr or None)."""

    __slots__ = ("value", "lineno", "implicit")

    def __init__(self, value, lineno, implicit=False):
        self.value = value
        self.lineno = lineno
        self.implicit = implicit

    def __repr__(self):
        return "<Return %s @%d>" % (
            "None" if self.value is None else ast.unparse(self.value),
            self.lineno)


class Block:
    """A basic block: straight-line statements plus guarded successors."""

    __slots__ = ("index", "statements", "edges", "terminal")

    def __init__(self, index):
        self.index = index
        self.statements = []          # plain ast.stmt nodes
        self.edges = []               # (Guard | None, Block)
        self.terminal = None          # Terminal, when the block returns

    def __repr__(self):
        return "<Block %d stmts=%d edges=%d%s>" % (
            self.index, len(self.statements), len(self.edges),
            " ret" if self.terminal else "")


class ControlFlowGraph:
    """CFG of one function in the protocol dialect."""

    def __init__(self, function):
        self.function = function
        self.blocks = []
        entry = self._new_block()
        self.entry = entry
        tail = self._build(function.body, entry)
        if tail is not None and tail.terminal is None:
            # Falling off the end is an implicit ``return None`` — kept
            # explicit so the extractor can flag it.
            tail.terminal = Terminal(None, _last_lineno(function),
                                     implicit=True)

    # ------------------------------------------------------------ building

    def _new_block(self):
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def _build(self, statements, current):
        """Append ``statements`` after ``current``; return the open tail
        block (or None when every path already returned)."""
        for statement in statements:
            if current is None:
                # Unreachable code after a return: ignore, as CPython does.
                return None
            if isinstance(statement, ast.Return):
                current.terminal = Terminal(statement.value,
                                            statement.lineno)
                current = None
            elif isinstance(statement, ast.If):
                current = self._build_if(statement, current)
            elif isinstance(statement, ast.For):
                current = self._build_for(statement, current)
            elif isinstance(statement, (ast.While, ast.Try, ast.With,
                                        ast.AsyncFor, ast.AsyncWith)):
                raise UnsupportedFlow(
                    "%s is outside the protocol-handler dialect"
                    % type(statement).__name__, statement.lineno)
            elif isinstance(statement, ast.Raise):
                # A raising path never produces a transition.
                current.statements.append(statement)
                current.terminal = Terminal(None, statement.lineno,
                                            implicit=True)
                current = None
            else:
                current.statements.append(statement)
        return current

    def _build_if(self, statement, current):
        folded = fold_constant_test(statement.test)
        if folded is not None:
            branch = statement.body if folded else statement.orelse
            return self._build(branch, current)
        then_block = self._new_block()
        current.edges.append(
            (Guard(statement.test, True, statement.lineno), then_block))
        then_tail = self._build(statement.body, then_block)
        else_block = self._new_block()
        current.edges.append(
            (Guard(statement.test, False, statement.lineno), else_block))
        else_tail = self._build(statement.orelse, else_block)
        if then_tail is None and else_tail is None:
            return None
        join = self._new_block()
        for tail in (then_tail, else_tail):
            if tail is not None:
                tail.edges.append((None, join))
        return join

    def _build_for(self, statement, current):
        if statement.orelse:
            raise UnsupportedFlow("for/else is outside the handler dialect",
                                  statement.lineno)
        if not isinstance(statement.target, ast.Name):
            raise UnsupportedFlow(
                "destructuring loop targets are outside the handler "
                "dialect", statement.lineno)
        for node in ast.walk(statement):
            if isinstance(node, (ast.Break, ast.Continue, ast.Return)):
                raise UnsupportedFlow(
                    "%s inside a fan-out loop is outside the handler "
                    "dialect" % type(node).__name__, node.lineno)
        # The loop body becomes one fan-out step on the current block.
        current.statements.append(_FanoutMarker(statement))
        return current

    # ---------------------------------------------------------- enumeration

    def paths(self, max_paths=512):
        """All entry→terminal step sequences.

        Each path is a list of ``ast.stmt`` / :class:`Guard` /
        :class:`FanoutScope` steps ending in a :class:`Terminal`.
        """
        results = []
        self._walk(self.entry, [], results, max_paths)
        return results

    def _walk(self, block, prefix, results, max_paths):
        steps = list(prefix)
        for statement in block.statements:
            if isinstance(statement, _FanoutMarker):
                steps.extend(statement.expand(max_paths))
            else:
                steps.append(statement)
        if block.terminal is not None:
            results.append(steps + [block.terminal])
            if len(results) > max_paths:
                raise PathExplosion(
                    "more than %d paths through %s"
                    % (max_paths, self.function.name))
            return
        if not block.edges:
            # A dangling join with no successors: treat as implicit return.
            results.append(steps + [Terminal(None, 0, implicit=True)])
            return
        for guard, successor in block.edges:
            next_prefix = steps + ([guard] if guard is not None else [])
            self._walk(successor, next_prefix, results, max_paths)


class _FanoutMarker:
    """Placeholder statement standing for a whole ``for`` loop."""

    def __init__(self, statement):
        self.statement = statement
        self.lineno = statement.lineno

    def expand(self, max_paths):
        # Template-parse the shell so the node carries whatever fields
        # this Python version's FunctionDef requires.
        function = ast.parse("def __fanout__():\n    pass").body[0]
        function.body = list(self.statement.body)
        ast.copy_location(function, self.statement)
        ast.fix_missing_locations(function)
        cfg = ControlFlowGraph(function)
        paths = cfg.paths(max_paths=max_paths)
        if len(paths) != 1:
            raise UnsupportedFlow(
                "branching inside a fan-out loop is outside the handler "
                "dialect", self.statement.lineno)
        body_steps = [step for step in paths[0]
                      if not isinstance(step, Terminal)]
        return [FanoutScope(self.statement.target.id, self.statement.iter,
                            body_steps, self.statement.lineno)]


def _last_lineno(function):
    last = function.body[-1]
    return getattr(last, "end_lineno", None) or last.lineno


def fold_constant_test(test):
    """True/False when ``test`` is statically decidable, else None.

    Handles the constants produced by helper inlining: literal arguments
    (``is_read=True``), their negations, and `X if True else Y` folds.
    """
    if isinstance(test, ast.Constant):
        return bool(test.value)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = fold_constant_test(test.operand)
        return None if inner is None else (not inner)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, right = test.left, test.comparators[0]
        if isinstance(left, ast.Constant) and isinstance(right, ast.Constant):
            op = test.ops[0]
            if isinstance(op, ast.Eq):
                return left.value == right.value
            if isinstance(op, ast.NotEq):
                return left.value != right.value
    return None


def build_cfg(function):
    """Build the CFG of one handler function."""
    return ControlFlowGraph(function)
