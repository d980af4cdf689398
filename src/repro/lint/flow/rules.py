"""Flow-sensitive rules: the checks that need paths, not patterns.

Four rules built on the CFG / reaching-definitions / taint layers:

``waitable-escape`` (file)
    A Waitable created from the environment and, on some normal path,
    neither yielded nor cancelled nor handed off: the kernel carries a
    pending event forever (the static twin of simsan's leak audit).
``lock-path-discipline`` (file)
    CC code that acquires a lock-table entry must consume the
    acquisition result on *every* CFG path out — including exception
    edges — so no path can leave a granted-or-queued request dangling.
``float-time-equality`` (project)
    Simulated time reaching exact comparison or hashing.  ``==``/``!=``
    with an operand that reads a time (``.now``/``.time``) is flagged
    unless :class:`~repro.lint.flow.taint.CleanTime` proves both sides
    pure copies of stored schedule times; a value derived by arithmetic
    from a time (:class:`~repro.lint.flow.taint.TimeTaint`, summarized
    across calls) is flagged wherever it meets ``==``/``in``, a dict
    key, a set element, ``hash()`` or a subscript-store key.
``stream-registry`` (project)
    The random-stream discipline: a drawn name must match a
    ``register_stream()`` entry, fault code (``repro/faults/``) must
    draw only from provably ``fault-*`` streams, and a drawn value must
    not cross a message boundary (``network.post``) or land in a
    hash-ordered set, where it would be consumed in an order the
    stream discipline cannot pin.

All fail the run (``error``); ``--select``/``--ignore``, suppressions,
and ``--jobs`` apply exactly as they do to every other rule.  The file
rules declare the engine modules in ``extra_hash_modules`` so an engine
edit busts their cached verdicts.
"""

from __future__ import annotations

import ast
from itertools import takewhile
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.flow.dataflow import FunctionFlow
from repro.lint.flow.taint import (
    CleanTime,
    DrawTaint,
    ProjectTaint,
    SINK_EQUALITY,
    TimeTaint,
    is_timeish,
    iter_hash_sinks,
)
from repro.lint.project import is_env_waitable_call, is_network_ref
from repro.lint.registry import (
    ProjectRule,
    Rule,
    register,
    register_project,
)
from repro.lint.rules import body_walk, scopes
from repro.lint.stream_draws import (
    compile_patterns,
    draw_is_registered,
    iter_stream_draws,
)
from repro.lint.violations import Violation

__all__ = [
    "ENGINE_MODULES",
    "FloatTimeEqualityRule",
    "LockPathDisciplineRule",
    "StreamRegistryRule",
    "WaitableEscapeRule",
]

#: Engine modules every flow file rule's cached verdicts depend on.
ENGINE_MODULES = (
    "repro.lint.flow.cfg",
    "repro.lint.flow.dataflow",
    "repro.lint.flow.taint",
)


def _parent_map(root: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _node_index_of(flow: FunctionFlow, stmt: ast.AST) -> Optional[int]:
    for index, candidate in enumerate(flow.cfg.stmts):
        if candidate is stmt:
            return index
    return None


# ======================================================================
# waitable-escape
# ======================================================================


@register
class WaitableEscapeRule(Rule):
    """Waitables provably never yielded nor cancelled on some path."""

    rule_id = "waitable-escape"
    summary = (
        "Waitable created here is neither yielded nor cancelled on "
        "some path to function exit: the kernel keeps the pending "
        "event alive forever (simsan's leak audit would report it at "
        "runtime); yield it, cancel it, or hand it off explicitly"
    )
    severity = "error"
    version = 1
    include = ("repro/",)
    extra_hash_modules = ENGINE_MODULES

    #: Method calls that settle a waitable in place.
    _CONSUME_METHODS = frozenset(
        {"cancel", "succeed", "fail", "trigger"}
    )

    def check(self, tree, source, path):
        violations: List[Violation] = []
        for scope in scopes(tree):
            self._check_scope(scope, path, violations)
        return violations

    def _check_scope(
        self, scope: ast.AST, path: str, violations: List[Violation]
    ) -> None:
        candidates = [
            (node.targets[0].id, node)
            for node in body_walk(scope)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and is_env_waitable_call(node.value)
        ]
        if not candidates:
            return
        flow = FunctionFlow(scope)
        for var, stmt in candidates:
            def_index = _node_index_of(flow, stmt)
            if def_index is None:
                continue
            escaped, consuming = self._classify_uses(
                flow, var, stmt
            )
            if escaped:
                continue  # handed off somewhere we cannot track
            if not consuming or flow.cfg.reaches_exit_avoiding(
                def_index, consuming, include_exceptional=False
            ):
                violations.append(self.violation(path, stmt))

    def _classify_uses(
        self, flow: FunctionFlow, var: str, defining: ast.Assign
    ) -> Tuple[bool, Set[int]]:
        """(some use escapes tracking, node indices with a consuming
        use) for every load of ``var`` outside its defining assign."""
        consuming: Set[int] = set()
        for index, stmt in enumerate(flow.cfg.stmts):
            if stmt is defining:
                continue
            for root in flow.cfg.expressions(index):
                parents = _parent_map(root)
                for node in ast.walk(root):
                    if not (
                        isinstance(node, ast.Name)
                        and node.id == var
                        and isinstance(node.ctx, ast.Load)
                    ):
                        continue
                    verdict = self._classify_one(
                        node, parents, root, stmt
                    )
                    if verdict == "escape":
                        return True, consuming
                    if verdict == "consume":
                        consuming.add(index)
        return False, consuming

    def _classify_one(
        self,
        name: ast.Name,
        parents: Dict[ast.AST, ast.AST],
        root: ast.AST,
        stmt: Optional[ast.AST],
    ) -> str:
        parent = parents.get(name)
        if parent is None:
            # The name is the whole expression root: a Return value,
            # an Assign value (alias/store), a bare Expr...  Only a
            # handful of statements evaluate a bare name root.
            if isinstance(stmt, (ast.Return, ast.Assign,
                                 ast.AnnAssign)):
                return "escape"
            return "neutral"
        if isinstance(parent, ast.Yield) and parent.value is name:
            return "consume"
        if isinstance(parent, ast.Attribute) and parent.value is name:
            grand = parents.get(parent)
            if (
                parent.attr in self._CONSUME_METHODS
                and isinstance(grand, ast.Call)
                and grand.func is parent
            ):
                return "consume"
            return "neutral"  # attribute read (x.time, x.done)
        if isinstance(parent, ast.Call):
            if name in parent.args or any(
                keyword.value is name
                for keyword in parent.keywords
            ):
                return "escape"
            return "neutral"
        if isinstance(
            parent,
            (ast.Compare, ast.BoolOp, ast.UnaryOp, ast.IfExp),
        ):
            return "neutral"
        if isinstance(stmt, (ast.If, ast.While)):
            return "neutral"  # truthiness test
        # Containers, subscripts, starred args, returns of
        # expressions, f-strings, anything else: assume handed off.
        return "escape"


# ======================================================================
# lock-path-discipline
# ======================================================================


def _is_lockish(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return "lock" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "lock" in node.attr.lower()
    return False


@register
class LockPathDisciplineRule(Rule):
    """Acquire results must be consumed on every path out."""

    rule_id = "lock-path-discipline"
    summary = (
        "lock-table acquire whose result escapes inspection on some "
        "CFG path (including exception edges): every path out of a CC "
        "method must branch on the grant or hand the request to "
        "conflict handling, or a queued entry dangles past a release"
    )
    severity = "error"
    version = 1
    include = ("repro/cc/", "repro/router/")
    extra_hash_modules = ENGINE_MODULES

    def check(self, tree, source, path):
        violations: List[Violation] = []
        for scope in scopes(tree):
            self._check_scope(scope, path, violations)
        return violations

    def _check_scope(
        self, scope: ast.AST, path: str, violations: List[Violation]
    ) -> None:
        acquires = self._acquire_statements(scope)
        if not acquires:
            return
        flow = FunctionFlow(scope)
        for stmt, names in acquires:
            index = _node_index_of(flow, stmt)
            if index is None:
                continue
            if names is None:
                # Bare-expression acquire: the (granted, request)
                # result is discarded on *every* path.
                violations.append(
                    self.violation(
                        path,
                        stmt,
                        "lock acquire result discarded: the grant "
                        "flag and queued request are unreachable, so "
                        "no path can release or abort the entry",
                    )
                )
                continue
            blocked = {
                other
                for other in range(len(flow.cfg))
                if other != index
                and names & flow.node_uses(other)
            }
            if flow.cfg.reaches_exit_avoiding(
                index, blocked, include_exceptional=True
            ):
                violations.append(self.violation(path, stmt))

    @staticmethod
    def _acquire_statements(
        scope: ast.AST,
    ) -> List[Tuple[ast.AST, Optional[FrozenSet[str]]]]:
        """(statement, assigned-result names) per lock acquire; the
        names are None when the result is discarded outright."""
        found: List[Tuple[ast.AST, Optional[FrozenSet[str]]]] = []
        for node in body_walk(scope):
            value = None
            if isinstance(node, (ast.Expr, ast.Assign)):
                value = node.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "acquire"
                and _is_lockish(value.func.value)
            ):
                continue
            if isinstance(node, ast.Expr):
                found.append((node, None))
                continue
            names: Set[str] = set()
            opaque = False
            for target in node.targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if isinstance(element, ast.Name):
                        names.add(element.id)
                    else:
                        opaque = True
            if opaque:
                continue  # stored into an attribute: tracked elsewhere
            found.append((node, frozenset(names)))
        return found


# ======================================================================
# float-time-equality
# ======================================================================


def _timeish_pairs(compare: ast.Compare) -> List[Tuple[ast.AST, ast.AST]]:
    """``==``/``!=`` operand pairs of which at least one reads a time."""
    operands = [compare.left, *compare.comparators]
    return [
        (operands[index], operands[index + 1])
        for index, op in enumerate(compare.ops)
        if isinstance(op, (ast.Eq, ast.NotEq))
        and (is_timeish(operands[index]) or is_timeish(operands[index + 1]))
    ]


@register_project
class FloatTimeEqualityRule(ProjectRule):
    """Simulated time reaching exact float comparison or hashing."""

    rule_id = "float-time-equality"
    summary = (
        "simulated time reaches exact float comparison or hashing: == "
        "/ != on a time is only sound between pure copies of one "
        "scheduled value, and a value derived from a time by float "
        "arithmetic never is; compare stored schedule times, "
        "restructure, or suppress with a justification"
    )
    version = 3
    # Simulator sources only: tests legitimately assert exact clock
    # values the kernel guarantees.
    include = (
        "repro/sim/",
        "repro/core/",
        "repro/cc/",
        "repro/router/",
    )

    _EQUALITY_MESSAGE = (
        "== / != on simulated time whose operands the dataflow cannot "
        "prove are pure copies of one scheduled value; "
    )

    def check_project(self, model) -> List[Violation]:
        summaries = ProjectTaint(model, TimeTaint)
        sink_params: Dict[str, FrozenSet[str]] = {}
        violations: List[Violation] = []
        for module in model.sorted_modules():
            if not self.applies_to(module.path):
                continue
            # Anchor -> message; the first reason found for a
            # comparison or sink is the one reported.
            found: Dict[ast.AST, str] = {}
            unowned = {
                node
                for node in ast.walk(module.tree)
                if isinstance(node, ast.Compare) and _timeish_pairs(node)
            }
            for scope in scopes(module.tree):
                self._check_scope(
                    model, summaries, sink_params, scope, unowned, found
                )
            # Comparisons no scope's CFG owns (default values,
            # annotations) are flagged syntactically.
            for compare in unowned:
                found.setdefault(compare, self._EQUALITY_MESSAGE)
            violations.extend(
                self.violation(module.path, anchor, message + self.summary)
                for anchor, message in found.items()
            )
        return violations

    def _check_scope(
        self, model, summaries, sink_params, scope, unowned, found
    ) -> None:
        fn = model.functions_by_node.get(scope)
        where = fn.qualname if fn else getattr(scope, "name", "module")
        flow = model.flow(scope)
        clean = CleanTime(flow)
        taint = summaries.taint_for(scope)
        for index in range(len(flow.cfg)):
            for root in flow.cfg.expressions(index):
                for node in ast.walk(root):
                    if node not in unowned:
                        continue
                    unowned.discard(node)
                    if not all(
                        clean.clean(left, index) and clean.clean(right, index)
                        for left, right in _timeish_pairs(node)
                    ):
                        found.setdefault(node, self._EQUALITY_MESSAGE)
                for kind, operand, anchor in iter_hash_sinks(root):
                    if kind == SINK_EQUALITY and is_timeish(operand):
                        continue  # the CleanTime check above
                    if taint.tainted(operand, index):
                        found.setdefault(
                            anchor,
                            f"time-derived value used as {kind} in "
                            f"{where}; ",
                        )
                if fn is not None:
                    self._check_call_args(
                        model, sink_params, fn, taint, root, index, found
                    )

    # -- depth-1 argument propagation ----------------------------------

    def _check_call_args(
        self, model, sink_params, fn, taint, root, index, found
    ) -> None:
        for call in ast.walk(root):
            if not isinstance(call, ast.Call):
                continue
            target = model.resolve_call(fn, call)
            if target is None:
                continue
            sinks = self._sink_params(model, sink_params, target)
            if not sinks:
                continue
            params, _required, _vararg = target.positional_params()
            positional = takewhile(
                lambda arg: not isinstance(arg, ast.Starred), call.args
            )
            arguments = [
                (param.arg, arg) for param, arg in zip(params, positional)
            ] + [(keyword.arg, keyword.value) for keyword in call.keywords]
            for name, arg in arguments:
                if name in sinks and taint.tainted(arg, index):
                    found.setdefault(
                        call,
                        f"time-derived argument {name!r} reaches an "
                        f"exact comparison/hash inside "
                        f"{target.qualname}; ",
                    )

    @staticmethod
    def _sink_params(model, memo, fn) -> FrozenSet[str]:
        """Parameters of ``fn`` that flow into a hash/equality sink
        *within fn itself* (depth-1: no further call chaining)."""
        cached = memo.get(fn.qualname)
        if cached is not None:
            return cached
        flow = model.flow(fn.node)
        params, _required, _vararg = fn.positional_params()
        names = [param.arg for param in params] + [
            arg.arg for arg in fn.node.args.kwonlyargs
        ]
        sinks = set()
        for name in names:
            taint = TimeTaint(flow, tainted_params=frozenset((name,)))
            if any(
                taint.tainted(operand, index)
                for index in range(len(flow.cfg))
                for root in flow.cfg.expressions(index)
                for _kind, operand, _anchor in iter_hash_sinks(root)
            ):
                sinks.add(name)
        memo[fn.qualname] = frozenset(sinks)
        return memo[fn.qualname]


# ======================================================================
# stream-registry
# ======================================================================


@register_project
class StreamRegistryRule(ProjectRule):
    """The random-stream discipline, from draw site to consumer."""

    rule_id = "stream-registry"
    summary = (
        "random-stream discipline broken: every draw must name a "
        "register_stream() entry (a typo silently forks a fresh "
        "stream), fault code must draw only from fault-* streams (a "
        "shared stream perturbs every failure-free sequence), and a "
        "draw must be consumed where it is made, not posted across the "
        "network or stored in a set; common-random-numbers "
        "comparisons rely on all three"
    )
    version = 2
    include = ("repro/",)

    def check_project(self, model) -> List[Violation]:
        violations: List[Violation] = []
        patterns = model.stream_registry()
        # No registry in scope: nothing to check names against.
        compiled = compile_patterns(patterns) if patterns else None
        registry_paths = model.stream_registry_paths()
        for module in model.sorted_modules():
            if self.applies_to(module.path):
                self._check_draw_sites(
                    module,
                    None if module.path in registry_paths else compiled,
                    violations,
                )
        self._check_escapes(model, violations)
        return violations

    def _check_draw_sites(self, module, compiled, violations) -> None:
        """Unregistered names (against ``compiled``, when given) and
        fault code drawing from non-``fault-*`` streams."""
        in_faults = "repro/faults/" in module.path
        for draw in iter_stream_draws(module.tree):
            if in_faults and not draw.provably_prefixed("fault-"):
                message = (
                    "fault code draws from a stream not provably named "
                    "fault-*; "
                )
            elif (
                compiled is None
                or draw.dynamic
                or draw_is_registered(draw, compiled)
            ):
                continue
            else:
                drawn = (
                    repr(draw.name)
                    if draw.name is not None
                    else f"f-string starting {draw.prefix!r}"
                )
                message = f"unregistered stream name {drawn}; "
            violations.append(
                Violation(
                    rule_id=self.rule_id,
                    path=module.path,
                    line=draw.line,
                    col=draw.col,
                    message=message + self.summary,
                    severity=self.severity,
                )
            )

    def _check_escapes(self, model, violations) -> None:
        """RNG draw results posted over the network or stored in a set."""
        summaries = ProjectTaint(model, DrawTaint)
        for fn in sorted(model.functions.values(), key=lambda f: f.qualname):
            if not self.applies_to(fn.path):
                continue
            flow = model.flow(fn.node)
            taint = summaries.taint_for(fn.node)
            for index in range(len(flow.cfg)):
                for root in flow.cfg.expressions(index):
                    for call, arguments, what in self._sinks(root):
                        if any(taint.tainted(a, index) for a in arguments):
                            violations.append(
                                self.violation(
                                    fn.path,
                                    call,
                                    f"RNG draw result {what} in "
                                    f"{fn.qualname}; " + self.summary,
                                )
                            )

    @staticmethod
    def _sinks(root: ast.AST):
        """(call, candidate argument expressions, description)."""
        for node in ast.walk(root):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr == "post" and is_network_ref(node.func.value):
                arguments = list(node.args) + [
                    keyword.value for keyword in node.keywords
                ]
                yield node, arguments, (
                    "crosses a message boundary (network post)"
                )
            elif node.func.attr == "add" and node.args:
                yield node, [node.args[0]], (
                    "is stored into a hash-ordered set"
                )
