"""The per-file simlint rules, plus the scope helpers every rule shares.

Each rule targets a bug class this codebase has actually hit (or nearly
hit) while keeping figure replications seed-stable:

``id-keyed-container``
    ``d[id(obj)]`` — CPython reuses ids after garbage collection, so an
    id-keyed entry can be claimed by an unrelated object (the PR 2
    ``Timeout`` bug).  Key containers by the object itself.
``unseeded-global-random``
    Module-level ``random.*`` / ``numpy.random.*`` draws inside the
    simulator share one ambient stream: any new call site perturbs
    every stream after it and breaks common-random-numbers runs.  All
    randomness must come from injected ``random.Random`` streams.
``wall-clock``
    ``time.time()`` / ``datetime.now()`` readings leak host timing into
    a simulation whose only clock is ``env.now``.
``unordered-iteration``
    Iterating a ``set`` where schedules, grants, or victims are decided
    makes the outcome hash-order-dependent (error: wrap in ``sorted()``
    with an explicit key).  Iterating a dict or its views there couples
    the outcome to insertion history, and key-view set algebra
    (``d.keys() - e``) is outright hash-ordered (warning: insertion
    order *is* deterministic, so intended uses carry a waiver naming
    that intent instead of a sort).
``float-time-equality``
    ``==`` / ``!=`` with an operand that reads a clock or a stored
    schedule time (a ``now``/``time`` name or attribute) is exact float
    comparison; it is sound only between copies of one scheduled value,
    so each such site carries a waiver saying why.

The one project rule, ``stream-registry``, lives in
:mod:`repro.lint.project`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.registry import Rule, register
from repro.lint.violations import Violation

__all__ = [
    "FloatTimeEqualityRule",
    "IdKeyedContainerRule",
    "UnorderedIterationRule",
    "UnseededGlobalRandomRule",
    "WallClockRule",
    "body_walk",
    "scopes",
]

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scopes(tree: ast.AST) -> List[ast.AST]:
    """Every analysis scope in one file: the module, each class body,
    each (nested) function."""
    return [tree] + [
        node for node in ast.walk(tree) if isinstance(node, _SCOPE_NODES)
    ]


def body_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope``'s body in source order (pre-order), never
    entering a nested function, lambda, or class body."""
    stack = list(reversed(scope.body))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES + (ast.Lambda,)):
            continue
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


@register
class IdKeyedContainerRule(Rule):
    """Containers keyed by ``id(...)``."""

    rule_id = "id-keyed-container"
    summary = (
        "container keyed by id(obj): ids are recycled after GC, so a "
        "stale entry can be claimed by an unrelated object; key by the "
        "object itself (identity hash) or attach the state to it"
    )

    _KEYED_METHODS = frozenset(
        {"get", "pop", "setdefault", "add", "discard", "remove"}
    )

    def check(self, tree, source, path):
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and _is_id_call(
                node.slice
            ):
                violations.append(self.violation(path, node))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._KEYED_METHODS
                    and node.args
                    and _is_id_call(node.args[0])
                ):
                    violations.append(self.violation(path, node))
            elif isinstance(node, ast.Compare):
                if any(
                    isinstance(op, (ast.In, ast.NotIn))
                    for op in node.ops
                ) and _is_id_call(node.left):
                    violations.append(self.violation(path, node))
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _is_id_call(key):
                        violations.append(self.violation(path, key))
        return violations


@register
class UnseededGlobalRandomRule(Rule):
    """Module-level RNG draws inside the simulator packages."""

    rule_id = "unseeded-global-random"
    summary = (
        "module-level RNG call shares the ambient global stream; draw "
        "from an injected random.Random stream instead (see "
        "repro.sim.streams)"
    )
    include = ("repro/sim/", "repro/core/", "repro/cc/")

    _RNG_FUNCS = frozenset(
        {
            "betavariate",
            "choice",
            "choices",
            "expovariate",
            "gammavariate",
            "gauss",
            "getrandbits",
            "lognormvariate",
            "normalvariate",
            "paretovariate",
            "randbytes",
            "randint",
            "random",
            "randrange",
            "sample",
            "seed",
            "shuffle",
            "triangular",
            "uniform",
            "vonmisesvariate",
            "weibullvariate",
        }
    )

    def check(self, tree, source, path):
        violations: List[Violation] = []
        bare_imports: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name in self._RNG_FUNCS:
                            bare_imports.add(
                                alias.asname or alias.name
                            )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if (
                    func.attr in self._RNG_FUNCS
                    and self._is_global_rng_module(func.value)
                ):
                    violations.append(self.violation(path, node))
            elif isinstance(func, ast.Name):
                if func.id in bare_imports:
                    violations.append(self.violation(path, node))
        return violations

    @staticmethod
    def _is_global_rng_module(node: ast.AST) -> bool:
        # ``random.<fn>(...)`` — the stdlib module, not a Random
        # instance (instances are never named ``random`` here).
        if isinstance(node, ast.Name):
            return node.id == "random"
        # ``numpy.random.<fn>`` / ``np.random.<fn>``.
        if isinstance(node, ast.Attribute) and node.attr == "random":
            value = node.value
            return isinstance(value, ast.Name) and value.id in (
                "numpy",
                "np",
            )
        return False


@register
class WallClockRule(Rule):
    """Host-clock reads outside CLI/benchmark timing code."""

    rule_id = "wall-clock"
    summary = (
        "wall-clock read inside simulation code: the only clock is "
        "env.now; host time makes runs irreproducible"
    )
    # CLI progress timing and benchmark harnesses legitimately measure
    # wall time; everything else simulates it.
    exclude = ("experiments/", "benchmarks/")

    _TIME_FUNCS = frozenset(
        {
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
            "time",
            "time_ns",
        }
    )
    _DATETIME_FUNCS = frozenset({"now", "today", "utcnow"})

    def check(self, tree, source, path):
        violations: List[Violation] = []
        bare_imports: Set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
            ):
                for alias in node.names:
                    if alias.name in self._TIME_FUNCS:
                        bare_imports.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                if (
                    func.attr in self._TIME_FUNCS
                    and isinstance(value, ast.Name)
                    and value.id == "time"
                ):
                    violations.append(self.violation(path, node))
                elif (
                    func.attr in self._DATETIME_FUNCS
                    and self._is_datetime_ref(value)
                ):
                    violations.append(self.violation(path, node))
            elif isinstance(func, ast.Name):
                if func.id in bare_imports:
                    violations.append(self.violation(path, node))
        return violations

    @staticmethod
    def _is_datetime_ref(node: ast.AST) -> bool:
        # ``datetime.now`` / ``date.today`` / ``datetime.datetime.now``.
        if isinstance(node, ast.Name):
            return node.id in ("datetime", "date")
        if isinstance(node, ast.Attribute):
            return node.attr in ("datetime", "date")
        return False


#: Per container kind: the display/comprehension node types and the
#: constructor names that produce one.
_CONTAINERS = {
    "set": ((ast.Set, ast.SetComp), frozenset({"set", "frozenset"})),
    "dict": (
        (ast.Dict, ast.DictComp),
        frozenset({"dict", "defaultdict", "Counter", "OrderedDict"}),
    ),
}


def _is_container(
    node: ast.AST, kind: str, local_names: Set[str] = frozenset()
) -> bool:
    """Whether ``node`` is syntactically a ``kind`` (set/dict) value.

    Recognizes displays and comprehensions, constructor calls,
    ``d.get(k, set())`` / ``d.pop(k, {})`` (the container-valued
    default makes the result one), and locals in ``local_names`` that
    were previously bound to one of the above.
    """
    displays, constructors = _CONTAINERS[kind]
    if isinstance(node, displays):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in constructors:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "pop")
            and any(_is_container(arg, kind) for arg in node.args)
        ):
            return True
    return isinstance(node, ast.Name) and node.id in local_names


def _container_names(scope: ast.AST) -> dict:
    """``{"set": names, "dict": names}``: locals of ``scope`` bound to a
    set / dict expression, in source order (``b = a`` after ``a =
    set()`` counts)."""
    names = {kind: set() for kind in _CONTAINERS}
    for node in body_walk(scope):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        for kind, bound in names.items():
            if _is_container(value, kind, bound):
                bound.update(
                    t.id for t in targets if isinstance(t, ast.Name)
                )
    return names


def _is_dict_view_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("items", "keys", "values")
        and not node.args
        and not node.keywords
    )


def _is_dict_ordered(node: ast.AST, names: Set[str]) -> bool:
    """Iterables whose order is a dict's insertion history (or, for
    key-view set algebra, hash order)."""
    if _is_dict_view_call(node) or _is_container(node, "dict", names):
        return True
    # d.keys() | e, d.keys() - e, ...: KeysView set algebra produces a
    # plain *unordered* set.
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_dict_view_call(node.left) or _is_dict_view_call(
            node.right
        )
    return False


#: Builtins whose result cannot depend on the iteration order of a
#: comprehension argument; a dict iterated inside one is harmless.
_ORDER_FREE_CONSUMERS = frozenset(
    {"all", "any", "sum", "min", "max", "len", "set", "frozenset",
     "sorted"}
)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register
class UnorderedIterationRule(Rule):
    """Set or dict iteration where schedules and victims are decided."""

    rule_id = "unordered-iteration"
    summary = (
        "iteration order of a set (hash order) or dict (insertion "
        "history) decides a grant, victim, or wakeup order; iterate "
        "sorted(...) with an explicit key"
    )
    include = ("repro/cc/", "repro/sim/", "repro/core/")

    _SET_MESSAGE = (
        "iteration order of a set is hash-dependent; wrap in sorted() "
        "with an explicit key so grant/victim order is deterministic"
    )
    _DICT_MESSAGE = (
        "iteration order of a dict is its insertion history, not a "
        "canonical order; where grants, victims, or wakeups are "
        "decided this couples the outcome to arrival order — iterate "
        "sorted(...) with an explicit key, or waive with the reason "
        "the insertion order is the intended one"
    )

    def check(self, tree, source, path):
        violations: List[Violation] = []
        order_free = {
            node.args[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_FREE_CONSUMERS
            and len(node.args) == 1
            and isinstance(
                node.args[0], (ast.ListComp, ast.SetComp, ast.GeneratorExp)
            )
        }
        for scope in scopes(tree):
            names = _container_names(scope)
            for node in body_walk(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables = [(node.iter, False)]
                elif isinstance(node, _COMPREHENSIONS):
                    iterables = [
                        (generator.iter, node in order_free)
                        for generator in node.generators
                    ]
                else:
                    continue
                for iterable, exempt in iterables:
                    if _is_container(iterable, "set", names["set"]):
                        violations.append(
                            self.violation(
                                path, iterable, self._SET_MESSAGE
                            )
                        )
                    elif not exempt and _is_dict_ordered(
                        iterable, names["dict"]
                    ):
                        violations.append(
                            self.violation(
                                path,
                                iterable,
                                self._DICT_MESSAGE,
                                severity="warning",
                            )
                        )
        return violations


def _is_timeish(node: ast.AST) -> bool:
    """A ``now``/``time`` name or attribute: a clock or stored time."""
    if isinstance(node, ast.Name):
        return node.id in ("now", "time")
    if isinstance(node, ast.Attribute):
        return node.attr in ("now", "time")
    return False


@register
class FloatTimeEqualityRule(Rule):
    """Exact float comparison on simulated-time expressions."""

    rule_id = "float-time-equality"
    summary = (
        "== / != on simulated time is exact float comparison; it is "
        "only sound between copies of one scheduled value — "
        "restructure, or suppress with the reason both operands are "
        "stored schedule times"
    )
    # Simulator sources only: tests legitimately assert exact clock
    # values the kernel guarantees.
    include = (
        "repro/sim/",
        "repro/core/",
        "repro/cc/",
        "repro/router/",
    )

    def check(self, tree, source, path):
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(op, (ast.Eq, ast.NotEq))
                and (
                    _is_timeish(operands[index])
                    or _is_timeish(operands[index + 1])
                )
                for index, op in enumerate(node.ops)
            ):
                violations.append(self.violation(path, node))
        return violations
