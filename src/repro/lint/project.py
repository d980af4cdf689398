"""Whole-program analysis: the project model and its syntactic rules.

The per-file rules in :mod:`repro.lint.rules` catch hazards visible in
one AST.  The bugs PRs 2-4 actually shipped — a stream name that only
exists at one call site, a message handler whose signature drifted, a
CC manager that silently inherits a no-op ``crash_reset`` — span
files, so this module builds a :class:`ProjectModel` of the whole
linted tree from the modules the file pass already parsed: a
**module-qualified symbol table** (every module, class, method and
function under its dotted name, with per-module import aliasing and
conservative base-class resolution) plus **conservative call
resolution** (:meth:`ProjectModel.
resolve_call` names a callee only when it is unambiguous: bare names
through imports, ``self.method`` through the class chain,
``ClassName.method``, and ``self.attr.method`` where ``self.attr`` was
assigned from exactly one constructor spelling along the chain — never
attribute calls on receivers whose type the model cannot pin down).

:class:`~repro.lint.registry.ProjectRule` subclasses run after every
file rule and see the full model; every one of them is syntactic.
Nothing in the linted tree is ever imported or executed — all analysis
is static.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.lint.registry import ProjectRule, register_project
from repro.lint.rules import body_walk
from repro.lint.stream_draws import (
    compile_patterns,
    draw_is_registered,
    iter_stream_draws,
)
from repro.lint.violations import Violation

__all__ = [
    "CCInterfaceRule",
    "ClassInfo",
    "FunctionInfo",
    "MessageHandlerRule",
    "ModuleInfo",
    "ProcessProtocolRule",
    "ProjectModel",
    "StreamRegistryRule",
]


# ======================================================================
# Symbol table
# ======================================================================


def _decorator_names(node: ast.AST) -> FrozenSet[str]:
    names = set()
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return frozenset(names)


@dataclass(frozen=True)
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str
    name: str
    module: str
    path: str
    class_name: Optional[str]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    decorators: FrozenSet[str]

    @property
    def is_generator(self) -> bool:
        """Whether the body yields; walked on demand, since only the
        callees ``process-protocol`` resolves are ever asked."""
        return any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for node in body_walk(self.node)
        )

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_abstract(self) -> bool:
        return "abstractmethod" in self.decorators

    def positional_params(self) -> Tuple[List[ast.arg], int, bool]:
        """(positional params sans self/cls, required count, has *args)."""
        args = self.node.args
        params = list(args.posonlyargs) + list(args.args)
        if self.is_method and not (
            self.decorators & {"staticmethod"}
        ):
            params = params[1:]  # self / cls
        required = max(0, len(params) - len(args.defaults))
        return params, required, args.vararg is not None

    def accepts_positional(self, count: int) -> bool:
        """Whether ``fn(*count_args)`` binds without error."""
        params, required, has_vararg = self.positional_params()
        if count < required:
            return False
        return has_vararg or count <= len(params)


@dataclass(frozen=True)
class ClassInfo:
    """One class with its methods and raw base-class spellings."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.ClassDef
    bases: Tuple[str, ...]  # dotted names as written; "" if unresolvable
    methods: Dict[str, FunctionInfo]
    abstract_methods: FrozenSet[str]

    @property
    def instance_attrs(self) -> FrozenSet[str]:
        """Names assigned on ``self`` in any method, plus class-level
        assignments."""
        return self._attribute_scan[0]

    @property
    def attr_types(self) -> Dict[str, str]:
        """attr -> constructor spelling for ``self.attr = Spelling(...)``
        assignments; "" when two assignments disagree on the spelling."""
        return self._attribute_scan[1]

    @cached_property
    def _attribute_scan(self) -> Tuple[FrozenSet[str], Dict[str, str]]:
        # One walk of every method body, on the first question about
        # the class's attributes; most classes are never asked.
        instance_attrs = set()
        attr_types: Dict[str, str] = {}
        for item in self.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in body_walk(item):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if _is_self_attribute(target):
                                instance_attrs.add(target.attr)
                                spelled = (
                                    _dotted_name(sub.value.func)
                                    if isinstance(sub.value, ast.Call)
                                    else None
                                ) or ""
                                previous = attr_types.get(target.attr)
                                if previous is None:
                                    attr_types[target.attr] = spelled
                                elif previous != spelled:
                                    # Re-assigned with a different
                                    # spelling: type unknown.
                                    attr_types[target.attr] = ""
                    elif isinstance(
                        sub, ast.AnnAssign
                    ) and _is_self_attribute(sub.target):
                        instance_attrs.add(sub.target.attr)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                instance_attrs.add(item.target.id)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        instance_attrs.add(target.id)
        return frozenset(instance_attrs), attr_types


@dataclass
class ModuleInfo:
    """One parsed module of the linted tree."""

    name: str
    path: str
    tree: ast.Module
    source: str
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    @cached_property
    def imports(self) -> Dict[str, str]:
        """Local alias -> fully qualified dotted target, from every
        import statement in the module; walked on first use."""
        imports: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = (
                        alias.name if alias.asname else
                        alias.name.split(".")[0]
                    )
                    imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: resolve against this package.
                    anchor_parts = self.name.split(".")
                    anchor = anchor_parts[: len(anchor_parts) - node.level]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    imports[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        return imports


def _is_self_attribute(node: ast.AST) -> bool:
    """``self.<attr>`` as an assignment target."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the package layout on disk.

    Walks up while ``__init__.py`` marks the parent as a package, so
    ``src/repro/core/network.py`` maps to ``repro.core.network``
    regardless of where the tree is checked out (and fixture packages
    in temporary directories resolve the same way).
    """
    path = Path(path)
    parts = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


class ProjectModel:
    """Symbol table + call resolution over one set of parsed modules."""

    def __init__(self, modules: Dict[str, ModuleInfo]):
        self.modules = modules
        self.modules_by_path: Dict[str, ModuleInfo] = {
            info.path: info for info in modules.values()
        }
        self.classes: Dict[str, ClassInfo] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        for info in modules.values():
            for cls in info.classes.values():
                self.classes[cls.qualname] = cls
                self.classes_by_name.setdefault(cls.name, []).append(
                    cls
                )
            for fn in info.functions.values():
                self.functions[fn.qualname] = fn
            for cls in info.classes.values():
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
        self.functions_by_node: Dict[ast.AST, FunctionInfo] = {
            fn.node: fn for fn in self.functions.values()
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, parsed: Iterable[Tuple[Path, ast.Module, str]]
    ) -> "ProjectModel":
        """A model over already-parsed ``(path, tree, source)`` modules.

        The engine hands over the trees its file pass parsed, so the
        project pass reads and parses nothing; files that did not parse
        are not among them (the file pass reported each one as a
        ``parse-error``).
        """
        modules: Dict[str, ModuleInfo] = {}
        for path, tree, source in parsed:
            name = module_name_for(path)
            if name in modules:
                # Two files mapping to one module (e.g. the same tree
                # given twice): first discovery wins, deterministic
                # because files arrive sorted.
                continue
            modules[name] = cls._build_module(
                name, path.as_posix(), tree, source
            )
        return cls(modules)

    @staticmethod
    def _build_module(
        name: str, path: str, tree: ast.Module, source: str
    ) -> ModuleInfo:
        info = ModuleInfo(
            name=name, path=path, tree=tree, source=source
        )
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                info.functions[node.name] = FunctionInfo(
                    qualname=f"{name}.{node.name}",
                    name=node.name,
                    module=name,
                    path=path,
                    class_name=None,
                    node=node,
                    decorators=_decorator_names(node),
                )
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = ProjectModel._build_class(
                    name, path, node
                )
        return info

    @staticmethod
    def _build_class(
        module: str, path: str, node: ast.ClassDef
    ) -> ClassInfo:
        methods: Dict[str, FunctionInfo] = {}
        abstract = set()
        for item in node.body:
            if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                fn = FunctionInfo(
                    qualname=f"{module}.{node.name}.{item.name}",
                    name=item.name,
                    module=module,
                    path=path,
                    class_name=node.name,
                    node=item,
                    decorators=_decorator_names(item),
                )
                methods[item.name] = fn
                if fn.is_abstract:
                    abstract.add(item.name)
        bases = tuple(
            _dotted_name(base) or "" for base in node.bases
        )
        return ClassInfo(
            qualname=f"{module}.{node.name}",
            name=node.name,
            module=module,
            path=path,
            node=node,
            bases=bases,
            methods=methods,
            abstract_methods=frozenset(abstract),
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve_class(
        self, module: ModuleInfo, spelled: str
    ) -> Optional[ClassInfo]:
        """Resolve a base-class spelling as written in ``module``."""
        if not spelled:
            return None
        head, _, rest = spelled.partition(".")
        # Fully spelled or import-aliased dotted reference.
        target = module.imports.get(head)
        if target is not None:
            qualname = f"{target}.{rest}" if rest else target
            found = self.classes.get(qualname)
            if found is not None:
                return found
        if not rest:
            local = module.classes.get(head)
            if local is not None:
                return local
            candidates = self.classes_by_name.get(head, [])
            if len(candidates) == 1:
                return candidates[0]
        return self.classes.get(spelled)

    def base_classes(self, cls: ClassInfo) -> List[ClassInfo]:
        """Resolved direct bases of ``cls`` (unresolvable ones drop)."""
        module = self.modules.get(cls.module)
        if module is None:
            return []
        resolved = []
        for spelled in cls.bases:
            base = self.resolve_class(module, spelled)
            if base is not None:
                resolved.append(base)
        return resolved

    def mro_chain(self, cls: ClassInfo) -> List[ClassInfo]:
        """Conservative linearization: DFS over resolved bases,
        duplicates and cycles dropped, ``cls`` first."""
        chain: List[ClassInfo] = []
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            chain.append(current)
            stack.extend(self.base_classes(current))
        return chain

    def resolve_method(
        self, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        """First definition of ``name`` along the class chain."""
        for ancestor in self.mro_chain(cls):
            method = ancestor.methods.get(name)
            if method is not None:
                return method
        return None

    def chain_instance_attrs(self, cls: ClassInfo) -> FrozenSet[str]:
        """Instance attributes assigned anywhere along the chain."""
        attrs = set()
        for ancestor in self.mro_chain(cls):
            attrs.update(ancestor.instance_attrs)
        return frozenset(attrs)

    def attr_class(
        self, cls: ClassInfo, attr: str
    ) -> Optional[ClassInfo]:
        """The class of ``self.attr`` when every assignment along the
        chain agrees on one resolvable constructor spelling."""
        spelled: Optional[str] = None
        declared_in: Optional[ClassInfo] = None
        for ancestor in self.mro_chain(cls):
            candidate = ancestor.attr_types.get(attr)
            if candidate is None:
                continue
            if not candidate:
                return None  # some assignment had unknown type
            if spelled is None:
                spelled = candidate
                declared_in = ancestor
            elif spelled != candidate:
                return None  # ancestors disagree
        if spelled is None or declared_in is None:
            return None
        # Resolve the spelling in the module that wrote it.
        module = self.modules.get(declared_in.module)
        if module is None:
            return None
        return self.resolve_class(module, spelled)

    def transitive_subclasses(
        self, root: ClassInfo
    ) -> List[ClassInfo]:
        """Every model class below ``root`` (excluding it), sorted."""
        below = []
        for cls in self.classes.values():
            if cls.qualname == root.qualname:
                continue
            chain = self.mro_chain(cls)
            if any(
                c.qualname == root.qualname for c in chain[1:]
            ):
                below.append(cls)
        below.sort(key=lambda c: c.qualname)
        return below

    def resolve_call(
        self, caller: FunctionInfo, call: ast.Call
    ) -> Optional[FunctionInfo]:
        """Conservative callee resolution; None when ambiguous."""
        func = call.func
        module = self.modules.get(caller.module)
        if isinstance(func, ast.Name):
            if module is None:
                return None
            local = module.functions.get(func.id)
            if local is not None:
                return local
            imported = module.imports.get(func.id)
            if imported is not None:
                return self.functions.get(imported)
            return None
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and caller.class_name is not None
                and module is not None
            ):
                enclosing = module.classes.get(caller.class_name)
                if enclosing is not None:
                    return self.resolve_method(enclosing, func.attr)
                return None
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and caller.class_name is not None
                and module is not None
            ):
                # self.attr.method() through the recorded constructor
                # type of self.attr.
                enclosing = module.classes.get(caller.class_name)
                if enclosing is not None:
                    target_cls = self.attr_class(
                        enclosing, receiver.attr
                    )
                    if target_cls is not None:
                        return self.resolve_method(
                            target_cls, func.attr
                        )
                return None
            if isinstance(receiver, ast.Name) and module is not None:
                target = self.resolve_class(module, receiver.id)
                if target is not None:
                    return self.resolve_method(target, func.attr)
        return None

    def sorted_modules(self) -> List[ModuleInfo]:
        """Every module, ordered by path for stable output."""
        return sorted(self.modules.values(), key=lambda m: m.path)

    # ------------------------------------------------------------------
    # Domain extractions
    # ------------------------------------------------------------------

    def stream_registry(self) -> List[str]:
        """Stream names/patterns registered via ``register_stream``.

        Extracted statically from every module in the model (the
        canonical registrations live in ``repro/sim/streams.py``, but
        extensions may register their own); only constant first
        arguments count.
        """
        return self._stream_registrations[0]

    def stream_registry_paths(self) -> FrozenSet[str]:
        """Paths of modules that call ``register_stream`` by bare name."""
        return self._stream_registrations[1]

    @cached_property
    def _stream_registrations(self) -> Tuple[List[str], FrozenSet[str]]:
        """The registry and its modules' paths, from one walk of the
        modules whose source mentions ``register_stream`` at all."""
        patterns = set()
        paths = set()
        for module in self.modules.values():
            if "register_stream" not in module.source:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    if func.id != "register_stream":
                        continue
                    paths.add(module.path)
                elif not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "register_stream"
                ):
                    continue
                if node.args and isinstance(
                    node.args[0], ast.Constant
                ) and isinstance(node.args[0].value, str):
                    patterns.add(node.args[0].value)
        return sorted(patterns), frozenset(paths)


# ======================================================================
# Project rules
# ======================================================================


def is_network_ref(node: ast.AST) -> bool:
    """``network.post(...)`` / ``self.network.post(...)`` /
    ``self.net._transmit...``: a receiver spelled like the network."""
    if isinstance(node, ast.Name):
        return "network" in node.id or node.id == "net"
    if isinstance(node, ast.Attribute):
        return "network" in node.attr or node.attr == "net"
    return False


@register_project
class MessageHandlerRule(ProjectRule):
    """``post()`` handlers must be resolvable unary callables."""

    rule_id = "message-handler-protocol"
    summary = (
        "NetworkManager.post handlers run as handler(payload): the "
        "handler (and any on_drop hook) must resolve to a callable "
        "accepting exactly one positional argument"
    )
    severity = "error"
    include = ("repro/",)

    def check_project(self, model: ProjectModel) -> List[Violation]:
        violations: List[Violation] = []
        for module in model.sorted_modules():
            if self.applies_to(module.path):
                self._check_module(model, module, violations)
        return violations

    def _check_module(
        self,
        model: ProjectModel,
        module: ModuleInfo,
        violations: List[Violation],
    ) -> None:
        functions = list(module.functions.values())
        for cls in module.classes.values():
            functions.extend(cls.methods.values())
        for fn in functions:
            local_defs = {
                node.name: node
                for node in ast.walk(fn.node)
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and node is not fn.node
            }
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "post"
                    and is_network_ref(node.func.value)
                ):
                    continue
                for role, expr in self._hook_args(node):
                    problem = self._check_callable(
                        model, module, fn, local_defs, expr
                    )
                    if problem is not None:
                        violations.append(
                            Violation(
                                rule_id=self.rule_id,
                                path=module.path,
                                line=expr.lineno,
                                col=expr.col_offset + 1,
                                message=f"{role}: {problem}",
                                severity=self.severity,
                            )
                        )

    @staticmethod
    def _hook_args(call: ast.Call):
        """(role, expression) pairs for the handler and on_drop args."""
        hooks = []
        if len(call.args) >= 3:
            hooks.append(("post() handler", call.args[2]))
        if len(call.args) >= 5:
            hooks.append(("post() on_drop hook", call.args[4]))
        for keyword in call.keywords:
            if keyword.arg == "handler":
                hooks.append(("post() handler", keyword.value))
            elif keyword.arg == "on_drop":
                hooks.append(("post() on_drop hook", keyword.value))
        return hooks

    def _check_callable(
        self,
        model: ProjectModel,
        module: ModuleInfo,
        caller: FunctionInfo,
        local_defs: Dict[str, ast.AST],
        expr: ast.AST,
    ) -> Optional[str]:
        """None when fine/unknown, else a description of the problem."""
        if isinstance(expr, ast.Constant) and expr.value is None:
            return None  # explicit "no hook"
        if isinstance(expr, ast.Lambda):
            return self._lambda_problem(expr)
        if isinstance(expr, ast.Name):
            local = local_defs.get(expr.id)
            if local is not None:
                return self._arity_problem(
                    FunctionInfo(
                        qualname=f"<local>.{expr.id}",
                        name=expr.id,
                        module=module.name,
                        path=module.path,
                        class_name=None,
                        node=local,
                        decorators=_decorator_names(local),
                    )
                )
            target = module.functions.get(expr.id)
            if target is None:
                imported = module.imports.get(expr.id)
                if imported is not None:
                    target = model.functions.get(imported)
            if target is not None:
                return self._arity_problem(target)
            return None  # a parameter or attribute: unknown, skip
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and caller.class_name is not None
        ):
            enclosing = module.classes.get(caller.class_name)
            if enclosing is None:
                return None
            method = model.resolve_method(enclosing, expr.attr)
            if method is not None:
                return self._arity_problem(method)
            if expr.attr in model.chain_instance_attrs(enclosing):
                return None  # instance attribute: arity unknown
            return (
                f"handler self.{expr.attr} does not resolve to any "
                f"method or attribute of {enclosing.name}"
            )
        return None

    @staticmethod
    def _lambda_problem(expr: ast.Lambda) -> Optional[str]:
        args = expr.args
        params = list(args.posonlyargs) + list(args.args)
        required = max(0, len(params) - len(args.defaults))
        if required <= 1 <= (
            len(params) if args.vararg is None else 10**9
        ):
            return None
        return (
            f"lambda takes {required} required argument(s); "
            "delivery calls it with exactly one payload"
        )

    @staticmethod
    def _arity_problem(fn: FunctionInfo) -> Optional[str]:
        if fn.accepts_positional(1):
            return None
        _params, required, _vararg = fn.positional_params()
        return (
            f"{fn.qualname} takes {required} required positional "
            "argument(s); delivery calls it with exactly one payload"
        )


@register_project
class CCInterfaceRule(ProjectRule):
    """Concrete CC classes must implement the full abstract surface."""

    rule_id = "cc-interface"
    summary = (
        "concurrency-control class leaves part of the CC interface "
        "unimplemented: every concrete manager must provide the "
        "abstract surface plus an explicit crash_reset, so a new "
        "algorithm cannot silently no-op under fault injection"
    )
    severity = "error"
    #: The router package hosts CC classes too (RoutedNodeManager and
    #: any future composite manager) — same surface requirements.
    include = ("repro/cc/", "repro/router/")

    #: Root -> methods that must be defined *below* the root even
    #: though the root ships a concrete default.
    _EXPLICIT: Dict[str, Tuple[str, ...]] = {
        "NodeCCManager": ("crash_reset",),
        "CCAlgorithm": (),
    }

    def check_project(self, model: ProjectModel) -> List[Violation]:
        violations: List[Violation] = []
        for root_name in sorted(self._EXPLICIT):
            for root in model.classes_by_name.get(root_name, []):
                if not root.abstract_methods:
                    continue  # not the abstract interface definition
                self._check_root(model, root, violations)
        return violations

    def _check_root(
        self,
        model: ProjectModel,
        root: ClassInfo,
        violations: List[Violation],
    ) -> None:
        subclasses = model.transitive_subclasses(root)
        parents = set()
        for cls in subclasses:
            for base in model.base_classes(cls):
                parents.add(base.qualname)
        required = sorted(
            set(root.abstract_methods)
            | set(self._EXPLICIT.get(root.name, ()))
        )
        for cls in subclasses:
            if cls.qualname in parents:
                continue  # intermediate base: leaves carry the check
            if cls.abstract_methods:
                continue  # itself abstract: not instantiable
            if not self.applies_to(cls.path):
                continue
            chain = [
                ancestor
                for ancestor in model.mro_chain(cls)
                if ancestor.qualname != root.qualname
            ]
            missing = [
                name
                for name in required
                if not any(
                    name in ancestor.methods
                    and name not in ancestor.abstract_methods
                    for ancestor in chain
                )
            ]
            if missing:
                violations.append(
                    Violation(
                        rule_id=self.rule_id,
                        path=cls.path,
                        line=cls.node.lineno,
                        col=cls.node.col_offset + 1,
                        message=(
                            f"{cls.name} (concrete {root.name}) does "
                            "not implement: " + ", ".join(missing)
                            + " — implement them explicitly (an "
                            "intentional no-op still documents the "
                            "fault-recovery contract)"
                        ),
                        severity=self.severity,
                    )
                )


#: Environment factory/combinator methods whose results are waitables;
#: a generator yielding one of these is treated as a sim-process body.
_ENV_WAITABLE_METHODS = frozenset(
    {"all_of", "any_of", "event", "process", "timeout"}
)

#: Yield values that can never be a Waitable.
_OBVIOUS_NON_WAITABLE = (
    ast.Constant,
    ast.Tuple,
    ast.List,
    ast.Dict,
    ast.Set,
    ast.JoinedStr,
    ast.BinOp,
    ast.BoolOp,
    ast.Compare,
    ast.UnaryOp,
)


def mentions_env(node: ast.AST) -> bool:
    """Whether any name or attribute under ``node`` is ``env``/``_env``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in ("env", "_env"):
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in (
            "env",
            "_env",
        ):
            return True
    return False


def is_env_waitable_call(node: ast.AST) -> bool:
    """``env.timeout(...)``-style factory call returning a Waitable."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _ENV_WAITABLE_METHODS
        and mentions_env(node.func.value)
    )


@register_project
class ProcessProtocolRule(ProjectRule):
    """What a sim process may yield, and that it never reenters run().

    Syntactic checks cover every generator: ``env.run()`` from inside
    one is reentrant dispatch, and a sim-process body (a generator that
    yields some ``env`` factory call) must not yield ``None`` or a
    literal.  Through the model, a process body that is a module-level
    function or method must also not yield a call whose resolved callee
    is a generator (needs ``yield from``) or provably returns a
    non-Waitable.
    """

    rule_id = "process-protocol"
    summary = (
        "sim-process protocol misuse: processes must yield Waitables "
        "(Event/Timeout/Process/AllOf/AnyOf) and never reenter "
        "env.run()"
    )

    def check_project(self, model: ProjectModel) -> List[Violation]:
        violations: List[Violation] = []
        for module in model.sorted_modules():
            # Every finding sits in a generator: no yield, no finding.
            if "yield" not in module.source or not self.applies_to(
                module.path
            ):
                continue
            for node in ast.walk(module.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self._check_function(
                        model, module.path, node, violations
                    )
        return violations

    def _check_function(
        self,
        model: ProjectModel,
        path: str,
        function: ast.AST,
        violations: List[Violation],
    ) -> None:
        yields, runs = [], []
        for node in body_walk(function):
            if isinstance(node, ast.Yield):
                yields.append(node)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"
                and mentions_env(node.func.value)
            ):
                runs.append(node)
        if not yields:
            return
        # env.run() from inside *any* generator is reentrant dispatch:
        # the kernel is single-threaded and run() is not recursive.
        violations.extend(
            self.violation(
                path,
                node,
                "env.run() called from inside a generator: the kernel "
                "dispatch loop is not reentrant",
            )
            for node in runs
        )
        if not any(
            y.value is not None and is_env_waitable_call(y.value)
            for y in yields
        ):
            return  # a plain generator, not a sim-process body
        caller = model.functions_by_node.get(function)
        for y in yields:
            problem = self._yield_problem(model, caller, y.value)
            if problem is not None:
                violations.append(self.violation(path, y, problem))

    def _yield_problem(
        self,
        model: ProjectModel,
        caller: Optional[FunctionInfo],
        value: Optional[ast.AST],
    ) -> Optional[str]:
        """Why yielding ``value`` breaks the protocol, or None."""
        if value is None:
            return (
                "bare yield in a sim process: processes must yield a "
                "Waitable, and None is not one"
            )
        if isinstance(value, _OBVIOUS_NON_WAITABLE):
            return (
                "sim process yields a non-Waitable literal; the kernel "
                "will kill the process with SimulationError"
            )
        if (
            caller is None
            or not isinstance(value, ast.Call)
            or is_env_waitable_call(value)
        ):
            return None
        callee = model.resolve_call(caller, value)
        if callee is None:
            return None  # unresolvable: stay conservative
        if callee.is_generator:
            return (
                f"{caller.qualname} yields a generator object from "
                f"{callee.qualname}; a generator is not a Waitable — "
                "use 'yield from' or wrap in env.process()"
            )
        if self._returns_provably_non_waitable(callee):
            return (
                f"{caller.qualname} yields the result of "
                f"{callee.qualname}, which provably returns a "
                "non-Waitable: the kernel will kill the process with "
                "SimulationError; yield a Timeout/Event/Process"
            )
        return None

    @staticmethod
    def _returns_provably_non_waitable(fn: FunctionInfo) -> bool:
        values = [
            node.value
            for node in body_walk(fn.node)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        # No value returned (falls off the end / bare return): None.
        return all(
            isinstance(value, _OBVIOUS_NON_WAITABLE) for value in values
        )


@register_project
class StreamRegistryRule(ProjectRule):
    """The random-stream discipline at every draw site."""

    rule_id = "stream-registry"
    summary = (
        "random-stream discipline broken: every draw must name a "
        "register_stream() entry (a typo silently forks a fresh "
        "stream), and fault code must draw only from fault-* streams "
        "(a shared stream perturbs every failure-free sequence); "
        "common-random-numbers comparisons rely on both"
    )
    include = ("repro/",)

    def check_project(self, model: ProjectModel) -> List[Violation]:
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
