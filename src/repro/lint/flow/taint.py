"""Taint lattices over the per-function dataflow, plus the
interprocedural summary layer.

Two concrete lattices share one propagation engine:

* :class:`TimeTaint` — "may this expression carry a value *derived by
  arithmetic* from a simulation time?"  The sources are the arithmetic
  operations themselves (``now + delay``, ``deadline - self.now``),
  not time loads: a *pure copy* of a stored schedule time
  (``handle.time``, ``now = self.now``) is canonical — every reader
  observes the identical float, so comparing or hashing it is exact —
  while anything that passed through float arithmetic is not.
* :class:`DrawTaint` — "may this expression carry a value drawn from a
  named RNG stream?"  Sources are the draw calls themselves
  (``streams.exponential(...)``); any arithmetic or copy of a draw
  stays a draw.

Shared lattice decisions, chosen so the engine is precise on the
kernel's real code:

* **Stores kill.**  Assigning into an attribute, subscript, or
  container laundered the value into program state; loads of
  attributes/subscripts are therefore untainted.  (This is what keeps
  ``handle.time`` — assigned from ``now + delay`` in ``schedule()`` —
  a *clean* stored time at its consumption sites.)
* **Unknown calls are untainted** unless an interprocedural summary
  (:class:`ProjectTaint`) proves the callee returns taint; a small
  passthrough set (``min``/``max``/``abs``/...) forwards operand
  taint.
* **Cycles resolve to untainted** — the least fixpoint of a
  may-analysis.

The interprocedural layer is deliberately *bounded*: function
summaries are one bit ("returns tainted"), the summary fixpoint is
capped, and argument-to-parameter propagation reaches exactly one call
deep (a tainted argument is checked against the callee's own sink
scan, not re-summarized transitively).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.flow.dataflow import (
    ASSIGN,
    AUG,
    PARAM,
    FunctionFlow,
)
from repro.lint.stream_draws import is_draw_call

__all__ = [
    "ARITH_OPS",
    "DrawTaint",
    "ProjectTaint",
    "Taint",
    "TimeTaint",
    "TIME_ATTRS",
    "is_timeish",
    "iter_hash_sinks",
]

#: Attribute / variable spellings that denote a simulation clock or a
#: stored schedule time.
TIME_ATTRS = frozenset({"now", "time"})

#: Binary operations that perform float arithmetic (taint sources for
#: the time lattice when an operand is time-valued).
ARITH_OPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
)

#: Builtins/math helpers that return (a function of) their operands:
#: taint flows straight through.
PASSTHROUGH_CALLS = frozenset(
    {"min", "max", "abs", "float", "int", "round", "sum", "floor", "ceil"}
)

#: Summary fixpoint cap — "bounded context" for the interprocedural
#: pass.  Call chains deeper than this many summary hops stay
#: unanalyzed (conservatively untainted).
MAX_SUMMARY_ROUNDS = 5


def is_timeish(expr: ast.AST) -> bool:
    """A load that syntactically denotes a clock / stored time."""
    if isinstance(expr, ast.Name):
        return expr.id in TIME_ATTRS
    if isinstance(expr, ast.Attribute):
        return expr.attr in TIME_ATTRS
    return False


class Taint:
    """Expression-level may-taint over one :class:`FunctionFlow`.

    ``tainted_params`` marks parameter names assumed tainted at entry
    (used for the depth-1 argument propagation).  ``call_taint`` maps
    a call expression to True (callee summary: returns tainted),
    False (resolved, untainted) or None (unresolved).
    """

    def __init__(
        self,
        flow: FunctionFlow,
        tainted_params: FrozenSet[str] = frozenset(),
        call_taint: Optional[
            Callable[[ast.Call], Optional[bool]]
        ] = None,
    ):
        self.flow = flow
        self.tainted_params = frozenset(tainted_params)
        self.call_taint = call_taint
        self._name_memo: Dict[Tuple[str, int], bool] = {}
        self._name_stack: Set[Tuple[str, int]] = set()

    # -- lattice hooks -------------------------------------------------

    def source(self, expr: ast.AST, node: int) -> bool:
        """Whether ``expr`` itself introduces taint."""
        return False

    def binop_tainted(self, expr: ast.BinOp, node: int) -> bool:
        return self.tainted(expr.left, node) or self.tainted(
            expr.right, node
        )

    # -- propagation ---------------------------------------------------

    def tainted(self, expr: ast.AST, node: int) -> bool:
        """May ``expr``, evaluated at CFG node ``node``, carry taint?"""
        if self.source(expr, node):
            return True
        if isinstance(expr, ast.BinOp):
            return self.binop_tainted(expr, node)
        if isinstance(expr, ast.UnaryOp):
            return self.tainted(expr.operand, node)
        if isinstance(expr, ast.IfExp):
            return self.tainted(expr.body, node) or self.tainted(
                expr.orelse, node
            )
        if isinstance(expr, ast.NamedExpr):
            return self.tainted(expr.value, node)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(
                self.tainted(
                    element.value
                    if isinstance(element, ast.Starred)
                    else element,
                    node,
                )
                for element in expr.elts
            )
        if isinstance(expr, ast.Starred):
            return self.tainted(expr.value, node)
        if isinstance(expr, ast.Call):
            return self._call_tainted(expr, node)
        if isinstance(expr, ast.Name):
            return self._name_tainted(expr.id, node)
        # Attribute / Subscript loads (stores kill), constants,
        # comparisons, boolops, f-strings: untainted.
        return False

    def _call_tainted(self, call: ast.Call, node: int) -> bool:
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in PASSTHROUGH_CALLS:
            return any(
                self.tainted(arg, node) for arg in call.args
            )
        if self.call_taint is not None and bool(
            self.call_taint(call)
        ):
            return True
        return False

    def _name_tainted(self, var: str, node: int) -> bool:
        key = (var, node)
        cached = self._name_memo.get(key)
        if cached is not None:
            return cached
        if key in self._name_stack:
            return False  # least fixpoint on def cycles
        self._name_stack.add(key)
        try:
            result = self._name_tainted_uncached(var, node)
        finally:
            self._name_stack.discard(key)
        self._name_memo[key] = result
        return result

    def _name_tainted_uncached(self, var: str, node: int) -> bool:
        for definition in self.flow.rdefs.definitions_of(var, node):
            if (
                definition.kind == PARAM
                and var in self.tainted_params
            ):
                return True
            if definition.kind == ASSIGN and definition.value is not None:
                if self.tainted(definition.value, definition.node):
                    return True
            elif definition.kind == AUG and definition.value is not None:
                # x += v  ==  x = x BINOP v: arithmetic via the hook.
                shim = ast.BinOp(
                    left=ast.Name(id=var, ctx=ast.Load()),
                    op=ast.Add(),
                    right=definition.value,
                )
                if self.binop_tainted(shim, definition.node):
                    return True
        return False


class TimeTaint(Taint):
    """The time lattice: arithmetic on a time-valued operand is the
    source; copies of stored times stay clean."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._timeval_memo: Dict[Tuple[str, int], bool] = {}
        self._timeval_stack: Set[Tuple[str, int]] = set()

    def binop_tainted(self, expr: ast.BinOp, node: int) -> bool:
        if not isinstance(expr.op, ARITH_OPS):
            return False
        for side in (expr.left, expr.right):
            if self._time_valued(side, node) or self.tainted(
                side, node
            ):
                return True
        return False

    def _time_valued(self, expr: ast.AST, node: int) -> bool:
        """May ``expr`` hold a time? (may-variant of the clean-copy
        classifier: some reaching def suffices)."""
        if is_timeish(expr):
            return True
        if not isinstance(expr, ast.Name):
            return False
        key = (expr.id, node)
        cached = self._timeval_memo.get(key)
        if cached is not None:
            return cached
        if key in self._timeval_stack:
            return False
        self._timeval_stack.add(key)
        try:
            result = any(
                definition.kind == ASSIGN
                and definition.value is not None
                and self._time_valued(
                    definition.value, definition.node
                )
                for definition in self.flow.rdefs.definitions_of(
                    expr.id, node
                )
            )
        finally:
            self._timeval_stack.discard(key)
        self._timeval_memo[key] = result
        return result


class DrawTaint(Taint):
    """The draw lattice: RNG stream draw calls are the source."""

    def source(self, expr: ast.AST, node: int) -> bool:
        # ``.get`` hands out the stream object, not a drawn value.
        return is_draw_call(expr) and expr.func.attr != "get"


class CleanTime:
    """Must-analysis twin of :class:`TimeTaint` for the syntactic
    equality rule: is an operand *provably* a pure copy of a stored
    schedule time (a timeish load, or a local every one of whose
    reaching definitions is a clean copy chain)?

    Anything unprovable — parameters, globals, augmented or opaque
    bindings, def cycles — classifies as not clean.
    """

    def __init__(self, flow: FunctionFlow):
        self.flow = flow
        self._memo: Dict[Tuple[str, int], bool] = {}
        self._stack: Set[Tuple[str, int]] = set()

    def clean(self, expr: ast.AST, node: int) -> bool:
        if isinstance(expr, ast.Attribute):
            return expr.attr in TIME_ATTRS
        if isinstance(expr, ast.Name):
            return self._name_clean(expr.id, node)
        return False

    def _name_clean(self, var: str, node: int) -> bool:
        key = (var, node)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._stack:
            return False  # cycle: cannot prove cleanliness
        self._stack.add(key)
        try:
            defs = self.flow.rdefs.definitions_of(var, node)
            result = bool(defs) and all(
                definition.kind == ASSIGN
                and definition.value is not None
                and self.clean(definition.value, definition.node)
                for definition in defs
            )
        finally:
            self._stack.discard(key)
        self._memo[key] = result
        return result


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

#: ``(kind, operand)`` hash/equality sinks yielded per expression root.
SINK_EQUALITY = "equality comparison"
SINK_MEMBERSHIP = "membership test"
SINK_DICT_KEY = "dict key"
SINK_SET_ELEMENT = "set element"
SINK_HASH = "hash() argument"
SINK_SUBSCRIPT_STORE = "subscript store key"


def iter_hash_sinks(root: ast.AST):
    """Yield ``(kind, operand_expr, report_node)`` for every position
    under ``root`` whose value feeds float equality or hashing."""
    for sub in ast.walk(root):
        if isinstance(sub, ast.Compare):
            operands = [sub.left] + list(sub.comparators)
            for position, op in enumerate(sub.ops):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    yield SINK_EQUALITY, operands[position], sub
                    yield SINK_EQUALITY, operands[position + 1], sub
                elif isinstance(op, (ast.In, ast.NotIn)):
                    # ``x in container`` hashes / equality-compares x.
                    yield SINK_MEMBERSHIP, operands[position], sub
        elif isinstance(sub, ast.Dict):
            for keyexpr in sub.keys:
                if keyexpr is not None:  # None = ** expansion
                    yield SINK_DICT_KEY, keyexpr, keyexpr
        elif isinstance(sub, ast.Set):
            for element in sub.elts:
                yield SINK_SET_ELEMENT, element, element
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "hash"
            and sub.args
        ):
            yield SINK_HASH, sub.args[0], sub
        elif isinstance(sub, ast.Subscript) and isinstance(
            sub.ctx, ast.Store
        ):
            yield SINK_SUBSCRIPT_STORE, sub.slice, sub


# ----------------------------------------------------------------------
# Interprocedural summaries
# ----------------------------------------------------------------------


class ProjectTaint:
    """Returns-tainted summaries for every function in a
    :class:`~repro.lint.project.ProjectModel`, for one lattice.

    ``taint_class`` is :class:`TimeTaint` or :class:`DrawTaint`.  The
    summary is one bit per function — "some return value may carry
    taint" — computed by a fixpoint over conservatively resolved calls,
    capped at :data:`MAX_SUMMARY_ROUNDS` (bounded context).  Flows come
    from the model's shared per-scope cache.
    """

    def __init__(self, model, taint_class):
        self.model = model
        self.taint_class = taint_class
        self.returns_tainted: Dict[str, bool] = {}
        self._solve()

    def taint_for(self, scope: ast.AST) -> Taint:
        """A taint instance for one scope; when the scope is a model
        function, its call verdicts consult the converged summaries."""
        fn = self.model.functions_by_node.get(scope)
        return self._taint(scope, fn, self.returns_tainted)

    def _taint(self, scope, fn, summaries) -> Taint:
        def call_taint(call: ast.Call) -> Optional[bool]:
            target = self.model.resolve_call(fn, call)
            if target is None:
                return None
            return summaries.get(target.qualname, False)

        return self.taint_class(
            self.model.flow(scope),
            call_taint=call_taint if fn is not None else None,
        )

    def _solve(self) -> None:
        functions = sorted(
            self.model.functions.values(), key=lambda f: f.qualname
        )
        summaries = {fn.qualname: False for fn in functions}
        for _round in range(MAX_SUMMARY_ROUNDS):
            changed = False
            for fn in functions:
                if summaries[fn.qualname]:
                    continue
                if self._fn_returns_tainted(fn, summaries):
                    summaries[fn.qualname] = True
                    changed = True
            if not changed:
                break
        self.returns_tainted = summaries

    def _fn_returns_tainted(self, fn, summaries) -> bool:
        taint = self._taint(fn.node, fn, summaries)
        return any(
            isinstance(stmt, ast.Return)
            and stmt.value is not None
            and taint.tainted(stmt.value, index)
            for index, stmt in enumerate(taint.flow.cfg.stmts)
        )
