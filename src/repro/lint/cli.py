"""``python -m repro.lint`` — the simlint command line.

Exit codes: 0 clean, 1 findings (live error-severity violations), 2
engine/config errors only (unknown rule patterns, missing paths).  The
one waiver is an inline ``# simlint: ignore[rule-id]`` comment on the
flagged line.
"""

from __future__ import annotations

import argparse
import fnmatch
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import lint_paths
from repro.lint.registry import all_project_rules, all_rules
from repro.lint.reporters import render_json, render_sarif, render_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "simlint: determinism static analysis for the simulator "
            "sources"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks", "tests"],
        help=(
            "files or directories to lint "
            "(default: src benchmarks tests)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="PATTERNS",
        help=(
            "comma-separated rule ids or globs to run "
            "(e.g. 'stream-*,wall-clock'; default: all)"
        ),
    )
    parser.add_argument(
        "--ignore",
        metavar="PATTERNS",
        help="comma-separated rule ids or globs to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in text output",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for kind, rules in (
        ("file", all_rules()),
        ("project", all_project_rules()),
    ):
        for rule in rules:
            scope = (
                "+".join(
                    fragment.strip("/").split("/")[-1] or fragment
                    for fragment in rule.include
                )
                if rule.include
                else "all"
            )
            lines.append(
                f"{rule.rule_id}  [{kind}, {rule.severity}, {scope}]"
            )
            lines.append(f"    {rule.summary}")
    return "\n".join(lines)


def _select_rules(
    select: Optional[str], ignore: Optional[str]
) -> tuple:
    """Resolve ``--select``/``--ignore`` glob lists into rule lists.

    Returns ``(file_rules, project_rules)``; raises ``ValueError``
    with a message when a pattern matches no rule id (a typo'd
    pattern silently linting nothing must not report success).
    """
    file_rules = {rule.rule_id: rule for rule in all_rules()}
    project_rules = {
        rule.rule_id: rule for rule in all_project_rules()
    }
    every_id = sorted(file_rules) + sorted(project_rules)

    def patterns(raw: Optional[str]) -> List[str]:
        if not raw:
            return []
        return [part.strip() for part in raw.split(",") if part.strip()]

    selected = set()
    select_patterns = patterns(select)
    if select_patterns:
        for pattern in select_patterns:
            matched = fnmatch.filter(every_id, pattern)
            if not matched:
                raise ValueError(
                    f"unknown rule: --select pattern {pattern!r} "
                    "matches no rule id"
                )
            selected.update(matched)
    else:
        selected.update(every_id)

    for pattern in patterns(ignore):
        matched = fnmatch.filter(every_id, pattern)
        if not matched:
            raise ValueError(
                f"unknown rule: --ignore pattern {pattern!r} "
                "matches no rule id"
            )
        selected.difference_update(matched)

    if not selected:
        raise ValueError("--select/--ignore left no rules to run")
    return (
        [file_rules[i] for i in sorted(selected) if i in file_rules],
        [
            project_rules[i]
            for i in sorted(selected)
            if i in project_rules
        ],
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_list_rules())
        return 0

    try:
        rules, project_rules = _select_rules(
            options.select, options.ignore
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    try:
        report = lint_paths(
            [Path(p) for p in options.paths],
            rules,
            project_rules=project_rules,
        )
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2

    if options.format == "json":
        print(render_json(report))
    elif options.format == "sarif":
        print(render_sarif(report, rules + list(project_rules)))
    else:
        print(
            render_text(
                report, show_suppressed=options.show_suppressed
            )
        )
    return 0 if report.ok else 1
