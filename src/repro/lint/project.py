"""The project pass: the parsed modules of one run and ``stream-registry``.

The per-file rules in :mod:`repro.lint.rules` catch hazards visible in
one AST.  The random-stream discipline spans files: a draw site is
checked against the ``register_stream`` calls of every linted module,
and a stream name that exists only at one call site silently forks a
fresh sequence.  This module keeps the modules the file pass already
parsed in a :class:`ProjectModel`, extracts the stream registry from
them, and checks every draw site against it.

:class:`~repro.lint.registry.ProjectRule` subclasses run after every
file rule and see the full model; the one shipped is syntactic.
Nothing in the linted tree is ever imported or executed — all analysis
is static.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.lint.registry import ProjectRule, register_project
from repro.lint.stream_draws import (
    compile_patterns,
    draw_is_registered,
    iter_stream_draws,
)
from repro.lint.violations import Violation

__all__ = [
    "ModuleInfo",
    "ProjectModel",
    "StreamRegistryRule",
]


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed module of the linted tree."""

    path: str
    tree: ast.Module
    source: str


class ProjectModel:
    """Every parsed module of one lint run, keyed by POSIX path."""

    def __init__(self, modules: Dict[str, ModuleInfo]):
        self.modules = modules

    @classmethod
    def build(
        cls, parsed: Iterable[Tuple[Path, ast.Module, str]]
    ) -> "ProjectModel":
        """A model over already-parsed ``(path, tree, source)`` modules.

        The engine hands over the trees its file pass parsed, so the
        project pass reads and parses nothing; files that did not parse
        are not among them (the file pass reported each one as a
        ``parse-error``).  ``discover_files`` has already dropped a
        file given twice.
        """
        modules: Dict[str, ModuleInfo] = {}
        for path, tree, source in parsed:
            posix_path = path.as_posix()
            modules[posix_path] = ModuleInfo(posix_path, tree, source)
        return cls(modules)

    def sorted_modules(self) -> List[ModuleInfo]:
        """Every module, ordered by path for stable output."""
        return [self.modules[path] for path in sorted(self.modules)]

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
