"""File discovery and the lint driver.

``lint_paths`` walks the given files/directories, lints every ``*.py``
(through the content-hash cache when one is supplied), runs the
whole-program project rules over the full tree, applies inline
suppressions, and returns a :class:`LintReport` with stable ordering —
the same tree always produces byte-identical output, which is itself a
determinism property the reporters rely on.

The two passes cache differently: per-file findings are a pure
function of ``(file bytes, file-rule set)`` and go through the
:class:`~repro.lint.cache.LintCache`; project findings depend on the
whole tree and are recomputed every run (building the model is one
parse per file — cheap next to the per-file rule sweep it replaces on
a warm cache).
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.cache import LintCache
from repro.lint.registry import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    rules_signature,
)
from repro.lint.suppress import apply_suppressions
from repro.lint.violations import Violation

__all__ = [
    "LintReport",
    "discover_files",
    "lint_paths",
    "lint_source",
]

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {
        ".git",
        ".hypothesis",
        ".mypy_cache",
        ".pytest_cache",
        ".ruff_cache",
        ".venv",
        "__pycache__",
        "node_modules",
    }
)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files: int = 0
    cache_hits: int = 0

    @property
    def active(self) -> List[Violation]:
        """Live findings — the ones not suppressed."""
        return [v for v in self.violations if not v.suppressed]

    @property
    def failures(self) -> List[Violation]:
        """Live *error*-severity findings — the ones that fail the run
        (warnings and infos are reported without gating)."""
        return [v for v in self.active if v.severity == "error"]

    @property
    def suppressed(self) -> List[Violation]:
        """Findings waived by inline comments."""
        return [v for v in self.violations if v.suppressed]

    @property
    def ok(self) -> bool:
        """Clean: no live errors."""
        return not self.failures


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files.

    Missing paths raise ``FileNotFoundError`` — a mistyped directory
    must not silently lint nothing and report success.
    """
    seen = set()
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = (
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not _SKIP_DIRS.intersection(candidate.parts)
            )
        for candidate in candidates:
            marker = candidate.resolve()
            if marker not in seen:
                seen.add(marker)
                files.append(candidate)
    files.sort(key=lambda f: f.as_posix())
    return files


def lint_source(
    source: str, path: str, rules: Optional[List[Rule]] = None
) -> List[Violation]:
    """Lint already-loaded source text (fixture/test entry point).

    ``rules=None`` runs every file rule and, over a one-module model,
    every project rule — the snippet is linted as :func:`lint_paths`
    would lint it as the only file in the tree.
    """
    project_rules = all_project_rules() if rules is None else ()
    if rules is None:
        rules = all_rules()
    posix_path = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=posix_path)
    except SyntaxError as error:
        return [
            Violation(
                rule_id="parse-error",
                path=posix_path,
                line=error.lineno or 1,
                col=(error.offset or 1),
                message=f"file does not parse: {error.msg}",
            )
        ]
    violations: List[Violation] = []
    for rule in rules:
        if rule.applies_to(posix_path):
            violations.extend(rule.check(tree, source, posix_path))
    if project_rules:
        from repro.lint.project import ProjectModel

        model = ProjectModel.from_module(posix_path, tree, source)
        for rule in project_rules:
            violations.extend(rule.check_project(model))
    violations = apply_suppressions(violations, source)
    violations.sort(key=lambda v: v.sort_key)
    return violations


def _file_pass(
    files: Sequence[Path],
    rules: List[Rule],
    cache: Optional[LintCache],
    report: LintReport,
) -> None:
    """Per-file rules over ``files``, appending into ``report``."""
    signature = rules_signature(rules)
    for path in files:
        posix_path = path.as_posix()
        report.files += 1
        data = path.read_bytes()
        key = None
        if cache is not None:
            key = LintCache.key(
                hashlib.sha256(data).hexdigest(), signature
            )
            cached = cache.get(key)
            if cached is not None:
                report.cache_hits += 1
                report.violations.extend(
                    v.with_path(posix_path) for v in cached
                )
                continue
        source = data.decode("utf-8", errors="replace")
        violations = lint_source(source, posix_path, rules)
        if key is not None:
            cache.put(key, violations)
        report.violations.extend(violations)


def _project_pass(
    files: Sequence[Path],
    project_rules: Sequence[ProjectRule],
    report: LintReport,
) -> None:
    """Whole-program rules over the full tree, appending findings."""
    from repro.lint.project import ProjectModel

    model = ProjectModel.build(files)
    findings: Dict[str, List[Violation]] = {}
    for rule in project_rules:
        for violation in rule.check_project(model):
            findings.setdefault(violation.path, []).append(violation)
    # Inline suppressions apply to project findings too; every finding
    # is anchored in a parsed module of the model.
    for path, violations in findings.items():
        source = model.modules_by_path[path].source
        report.violations.extend(apply_suppressions(violations, source))


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[List[Rule]] = None,
    cache: Optional[LintCache] = None,
    project_rules: Optional[Sequence[ProjectRule]] = None,
) -> LintReport:
    """Lint a set of files/directories into one report.

    ``rules=None`` runs every registered file rule; in that case
    ``project_rules=None`` also runs every registered project rule.
    With an explicit ``rules`` list, project rules default to none —
    callers selecting a subset (tests, ``--select``) pass both lists
    explicitly.
    """
    if project_rules is None:
        project_rules = all_project_rules() if rules is None else ()
    if rules is None:
        rules = all_rules()
    report = LintReport()
    files = discover_files(paths)
    _file_pass(files, rules, cache, report)
    if project_rules:
        _project_pass(files, project_rules, report)
    if cache is not None:
        cache.save()
    report.violations.sort(key=lambda v: v.sort_key)
    return report
