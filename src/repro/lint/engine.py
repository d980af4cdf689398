"""File discovery and the lint driver.

``lint_paths`` walks the given files/directories and lints every
``*.py`` in one pass: each file is read and parsed once, the file
rules run on that tree, and the same parsed modules make up the
:class:`~repro.lint.project.ProjectModel` the project rule reads.
Inline suppressions apply to both, and the returned
:class:`LintReport` has stable ordering — the same tree always
produces byte-identical output, which is itself a determinism property
the reporters rely on.
"""

from __future__ import annotations

import ast
import gc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.registry import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
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


def _project_findings(
    project_rules: Sequence[ProjectRule], model
) -> List[Violation]:
    """Project rules over ``model``, suppressions applied.

    Every finding is anchored in a parsed module of the model, whose
    inline comments may waive it.
    """
    findings: Dict[str, List[Violation]] = {}
    for rule in project_rules:
        for violation in rule.check_project(model):
            findings.setdefault(violation.path, []).append(violation)
    violations: List[Violation] = []
    for path, found in findings.items():
        source = model.modules[path].source
        violations.extend(apply_suppressions(found, source))
    return violations


def _lint(
    sources: Iterable[Tuple[Path, str]],
    rules: Sequence[Rule],
    project_rules: Sequence[ProjectRule],
) -> List[Violation]:
    """Every finding over ``(path, source)`` pairs, in report order.

    Each source is parsed once: the file rules walk its tree, and the
    project model is built from the same trees.  A source that does
    not parse yields one ``parse-error`` finding and stays out of the
    model.

    The cyclic collector is paused while the trees are alive, as
    ``Environment.run`` pauses it: every node parsing allocates stays
    reachable until the run ends, so a collection would only traverse
    the trees again (DESIGN §17 has the timings).
    """
    pause_gc = gc.isenabled()
    if pause_gc:
        gc.disable()
    try:
        violations: List[Violation] = []
        parsed = []
        for path, source in sources:
            posix_path = path.as_posix()
            try:
                tree = ast.parse(source, filename=posix_path)
            except SyntaxError as error:
                violations.append(
                    Violation(
                        rule_id="parse-error",
                        path=posix_path,
                        line=error.lineno or 1,
                        col=(error.offset or 1),
                        message=f"file does not parse: {error.msg}",
                    )
                )
                continue
            found: List[Violation] = []
            for rule in rules:
                if rule.applies_to(posix_path):
                    found.extend(rule.check(tree, source, posix_path))
            violations.extend(apply_suppressions(found, source))
            parsed.append((path, tree, source))
        if project_rules:
            from repro.lint.project import ProjectModel

            model = ProjectModel.build(parsed)
            violations.extend(_project_findings(project_rules, model))
    finally:
        if pause_gc:
            gc.enable()
    violations.sort(key=lambda v: v.sort_key)
    return violations


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
    return _lint([(Path(path), source)], rules, project_rules)


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[List[Rule]] = None,
    project_rules: Optional[Sequence[ProjectRule]] = None,
) -> LintReport:
    """Lint a set of files/directories into one report.

    Each file is read and parsed once.  ``rules=None`` runs every
    registered file rule; in that case ``project_rules=None`` also runs
    every registered project rule.  With an explicit ``rules`` list,
    project rules default to none — callers selecting a subset (tests,
    ``--select``) pass both lists explicitly.
    """
    if project_rules is None:
        project_rules = all_project_rules() if rules is None else ()
    if rules is None:
        rules = all_rules()
    files = discover_files(paths)
    sources = (
        (path, path.read_bytes().decode("utf-8", errors="replace"))
        for path in files
    )
    return LintReport(
        violations=_lint(sources, rules, project_rules),
        files=len(files),
    )
