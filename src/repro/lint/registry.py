"""Rule base classes and the process-wide rule registries.

Two kinds of rule live here:

* **File rules** (:class:`Rule`) see one parsed file at a time.
* **Project rules** (:class:`ProjectRule`) see every parsed file of
  the run at once (:mod:`repro.lint.project`), and run after every
  file rule.

Rules register themselves with the :func:`register` /
:func:`register_project` decorators at import time (importing
:mod:`repro.lint.rules` and :mod:`repro.lint.project` populates the
registries).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple, Type

from repro.lint.violations import SEVERITIES, Violation

__all__ = [
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "get_rule",
    "register",
    "register_project",
]


class _BaseRule:
    """Attributes shared by file and project rules."""

    #: Stable kebab-case identifier, used in reports and suppressions.
    rule_id: str = ""
    #: One-line description for ``--list-rules`` and the docs table.
    summary: str = ""
    #: ``error`` findings fail the run; ``warning``/``info`` only report.
    severity: str = "error"
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
    """One check over every linted file at once.

    ``check_project`` receives the :class:`~repro.lint.project.
    ProjectModel` built over every linted file and returns findings
    anchored in any of them.  ``include``/``exclude`` scope which
    files' *findings* the rule may emit (the model itself always spans
    the full tree — a conformance check needs to see the registry
    module even when findings are limited to consumer modules).
    """

    def check_project(self, model) -> List[Violation]:
        """Findings over the project model."""
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
    # Importing the rule modules registers every rule; re-imports are
    # cached no-ops.
    import repro.lint.project  # noqa: F401 - registers on import
    import repro.lint.rules  # noqa: F401 - registers on import


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
