"""Rule base classes and the process-wide rule registries.

Two kinds of rule live here:

* **File rules** (:class:`Rule`) see one parsed file at a time and are
  cache-friendly: linting a file is a pure function of its bytes and
  the active rule set.
* **Project rules** (:class:`ProjectRule`) see the whole-program model
  (:mod:`repro.lint.project`) and run after every file rule; their
  findings are never cached per file.

Rules register themselves with the :func:`register` /
:func:`register_project` decorators at import time (importing
:mod:`repro.lint.rules` and :mod:`repro.lint.project` populates the
registries).  Each rule carries a ``version`` stamp and a *source
hash* — a whitespace/comment-insensitive digest of the module that
defines it — and the combined signature of every registered file rule
feeds the per-file cache key, so editing a rule's logic invalidates
exactly the cached results it could change while a formatting-only
edit of the rule module invalidates nothing.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Type

from repro.lint.violations import SEVERITIES, Violation

__all__ = [
    "RULESET_VERSION",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "get_rule",
    "module_source_hash",
    "register",
    "register_project",
    "rules_signature",
]

#: Bumped when the engine's rule semantics change globally (severity
#: model, suppression format, ...); part of every cache key.
#: v3: flow-sensitive rule layer (CFG/dataflow/taint) added.
#: v4: flow layer removed; every rule is syntactic again.
RULESET_VERSION = 4


class _BaseRule:
    """Attributes shared by file and project rules."""

    #: Stable kebab-case identifier, used in reports and suppressions.
    rule_id: str = ""
    #: One-line description for ``--list-rules`` and the docs table.
    summary: str = ""
    #: ``error`` findings fail the run; ``warning``/``info`` only report.
    severity: str = "error"
    #: Bumped whenever the rule's behaviour changes (cache invalidation).
    version: int = 1
    #: Path fragments the rule is limited to (empty = everywhere).
    include: Tuple[str, ...] = ()
    #: Path fragments the rule never runs on.
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (POSIX string)."""
        if any(fragment in path for fragment in self.exclude):
            return False
        if self.include:
            return any(fragment in path for fragment in self.include)
        return True

    @property
    def source_hash(self) -> str:
        """Digest of the defining module, insensitive to formatting."""
        try:
            module_file = inspect.getfile(type(self))
        except (TypeError, OSError):  # pragma: no cover - builtins only
            return "unknown"
        return module_source_hash(module_file)

    def violation(
        self,
        path: str,
        node: ast.AST,
        message: str = "",
        severity: Optional[str] = None,
    ) -> Violation:
        """Convenience constructor anchored at ``node``."""
        return Violation(
            rule_id=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message or self.summary,
            severity=severity or self.severity,
        )


class Rule(_BaseRule):
    """One per-file static check.

    Subclasses set the class attributes and implement :meth:`check`.

    ``include``/``exclude`` scope the rule by path substring (matched
    against the POSIX form of the file path): with a non-empty
    ``include`` the rule only runs on paths containing one of the
    fragments; any ``exclude`` fragment wins over ``include``.  This is
    how "wall-clock reads are fine in benchmark timing loops" and
    "unordered iteration only matters where schedules are decided" are
    expressed without a config file.
    """

    def check(
        self, tree: ast.AST, source: str, path: str
    ) -> List[Violation]:
        """Findings for one parsed file; locations must be 1-based."""
        raise NotImplementedError


class ProjectRule(_BaseRule):
    """One whole-program check.

    ``check_project`` receives the :class:`~repro.lint.project.
    ProjectModel` built over every linted file and returns findings
    anchored in any of them.  ``include``/``exclude`` scope which
    files' *findings* the rule may emit (the model itself always spans
    the full tree — a conformance check needs to see the registry
    module even when findings are limited to consumer modules).
    """

    def check_project(self, model) -> List[Violation]:
        """Findings over the whole-program model."""
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}
_PROJECT_REGISTRY: Dict[str, ProjectRule] = {}


def _register_into(registry: Dict, other: Dict, rule) -> None:
    if not rule.rule_id:
        raise ValueError(f"{type(rule).__name__} has no rule_id")
    if rule.rule_id in registry or rule.rule_id in other:
        raise ValueError(f"duplicate rule id: {rule.rule_id}")
    if rule.severity not in SEVERITIES:
        raise ValueError(
            f"{rule.rule_id}: unknown severity {rule.severity!r}"
        )
    registry[rule.rule_id] = rule


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a file rule."""
    _register_into(_REGISTRY, _PROJECT_REGISTRY, rule_class())
    return rule_class


def register_project(
    rule_class: Type[ProjectRule],
) -> Type[ProjectRule]:
    """Class decorator: instantiate and register a project rule."""
    _register_into(_PROJECT_REGISTRY, _REGISTRY, rule_class())
    return rule_class


def _ensure_loaded() -> None:
    # The project rules import the file-rule module, so this one
    # import registers every rule; re-imports are cached no-ops.
    import repro.lint.project  # noqa: F401 - registers on import


def all_rules() -> List[Rule]:
    """Every registered file rule, ordered by id for stable output."""
    _ensure_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def all_project_rules() -> List[ProjectRule]:
    """Every registered project rule, ordered by id."""
    _ensure_loaded()
    return [
        _PROJECT_REGISTRY[rule_id]
        for rule_id in sorted(_PROJECT_REGISTRY)
    ]


def get_rule(rule_id: str):
    """Look up one rule (file or project); ``KeyError`` if unknown."""
    _ensure_loaded()
    if rule_id in _REGISTRY:
        return _REGISTRY[rule_id]
    return _PROJECT_REGISTRY[rule_id]


#: Per-module AST-digest memo (hashing rules.py once per process).
_SOURCE_HASH_CACHE: Dict[str, str] = {}


def module_source_hash(module_file: str) -> str:
    """Formatting-insensitive digest of one Python source file.

    Hashes the ``ast.dump`` of the parsed module, so whitespace and
    comment edits produce the same digest while any change to the
    code's structure (including docstrings) produces a new one.  Files
    that cannot be read or parsed hash their raw identity instead —
    conservative: an unreadable rule module never silently reuses
    stale cached verdicts.
    """
    cached = _SOURCE_HASH_CACHE.get(module_file)
    if cached is not None:
        return cached
    try:
        source = Path(module_file).read_text("utf-8")
        normalized = ast.dump(ast.parse(source))
    except (OSError, SyntaxError, ValueError):
        normalized = f"unparsed:{module_file}"
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]
    _SOURCE_HASH_CACHE[module_file] = digest
    return digest


def rules_signature(rules: List[Rule] = None) -> str:
    """Digest of the active file-rule set, part of every cache key.

    Covers the engine-wide :data:`RULESET_VERSION` plus each rule's
    id, version stamp, scoping, and defining-module source hash, so
    changing any of them invalidates cached per-file results — while a
    whitespace-only edit of a rule module changes nothing.  Project
    rules are deliberately absent: per-file cache entries hold only
    file-rule findings, which project-rule edits cannot affect.
    """
    if rules is None:
        rules = all_rules()
    parts = [f"ruleset:{RULESET_VERSION}"]
    parts.extend(
        f"{r.rule_id}:{r.version}:{r.severity}:{r.source_hash}"
        f":{','.join(r.include)}:{','.join(r.exclude)}"
        for r in sorted(rules, key=lambda r: r.rule_id)
    )
    digest = hashlib.sha256("|".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]
