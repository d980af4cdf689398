"""Check descriptors for the runtime sanitizer.

Mirrors the shape the lint reporters expect from a rule: each check
exposes ``rule_id``, ``summary``, and a default ``severity``, so a
simsan report can be rendered by :func:`repro.lint.reporters.render_text`
/ ``render_json`` / ``render_sarif`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

STREAM_DISCIPLINE = "stream-discipline"
LEAK_AUDIT = "leak-audit"


@dataclass(frozen=True)
class Check:
    """Descriptor for one runtime checker (reporter-compatible)."""

    rule_id: str
    summary: str
    severity: str


CHECKS: Tuple[Check, ...] = (
    Check(
        rule_id=STREAM_DISCIPLINE,
        summary=(
            "a runtime stream draw bypassed the register_stream registry "
            "or crossed its declared component ownership"
        ),
        severity="error",
    ),
    Check(
        rule_id=LEAK_AUDIT,
        summary=(
            "end-of-run audit: an orphaned process, undelivered courier, "
            "or stranded cohort survived the simulation"
        ),
        severity="error",
    ),
)

_BY_ID: Dict[str, Check] = {check.rule_id: check for check in CHECKS}


def get_check(rule_id: str) -> Check:
    return _BY_ID[rule_id]
