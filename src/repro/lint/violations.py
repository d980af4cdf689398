"""The violation record produced by every lint rule."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

__all__ = ["SEVERITIES", "Violation"]

#: Recognized severity levels, strongest first.  Only ``error``
#: findings fail a run; ``warning`` and ``info`` are reported (and
#: surfaced in SARIF) without gating.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location.

    ``suppressed`` is True when the flagged line carries a matching
    ``# simlint: ignore[rule-id]`` comment.  A suppressed finding does
    not fail the run, but it is reported (JSON/SARIF always, text on
    request) so the waiver inventory stays auditable.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    suppressed: bool = False

    @property
    def sort_key(self) -> tuple:
        """Stable report order: location first, then rule."""
        return (self.path, self.line, self.col, self.rule_id)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (used by the JSON reporter)."""
        return {
            "rule_id": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "suppressed": self.suppressed,
        }

    def as_suppressed(self) -> "Violation":
        """A copy marked as waived by an inline comment."""
        return replace(self, suppressed=True)
