"""Text, JSON, and SARIF renderings of a :class:`LintReport`."""

from __future__ import annotations

import json
from typing import List, Optional

from repro.lint.engine import LintReport

__all__ = ["render_json", "render_sarif", "render_text"]

#: simlint severity -> SARIF result level.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}

_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(
    report: LintReport, show_suppressed: bool = False
) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: List[str] = []
    for violation in report.violations:
        if violation.suppressed and not show_suppressed:
            continue
        marker = " (suppressed)" if violation.suppressed else ""
        tag = violation.rule_id
        if violation.severity != "error":
            tag += f":{violation.severity}"
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col}: "
            f"[{tag}]{marker} {violation.message}"
        )
    active = len(report.active)
    suppressed = len(report.suppressed)
    if active:
        summary = (
            f"{active} violation{'s' if active != 1 else ''}"
            f" ({suppressed} suppressed) in {report.files} files"
        )
    else:
        summary = (
            f"clean: 0 violations ({suppressed} suppressed) in "
            f"{report.files} files"
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report; always includes suppressed findings."""
    payload = {
        "version": 4,
        "summary": {
            "files": report.files,
            "violations": len(report.active),
            "failures": len(report.failures),
            "suppressed": len(report.suppressed),
            "ok": report.ok,
        },
        "violations": [v.as_dict() for v in report.violations],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(report: LintReport, rules: Optional[list] = None) -> str:
    """SARIF 2.1.0 rendering (one run, driver ``simlint``).

    ``rules`` is the list of rule objects that ran (file and project
    rules together); None means every registered rule.  Suppressed
    findings are emitted with an ``inSource`` ``suppressions`` entry
    so code scanners show them as dismissed instead of dropping them.
    """
    if rules is None:
        from repro.lint.registry import all_project_rules, all_rules

        rules = list(all_rules()) + list(all_project_rules())
    rules = sorted(rules, key=lambda r: r.rule_id)
    rule_index = {rule.rule_id: i for i, rule in enumerate(rules)}
    descriptors = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS[rule.severity]
            },
        }
        for rule in rules
    ]

    results = []
    for violation in report.violations:
        result = {
            "ruleId": violation.rule_id,
            "level": _SARIF_LEVELS.get(violation.severity, "error"),
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": violation.line,
                            "startColumn": max(1, violation.col),
                        },
                    }
                }
            ],
        }
        index = rule_index.get(violation.rule_id)
        if index is not None:
            result["ruleIndex"] = index
        if violation.suppressed:
            result["suppressions"] = [
                {
                    "kind": "inSource",
                    "justification": "simlint: ignore comment",
                }
            ]
        results.append(result)

    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "rules": descriptors,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///./"}
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
