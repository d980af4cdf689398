"""Bridge simsan findings into the lint reporting machinery.

Runtime findings are ordinary :class:`~repro.lint.violations.Violation`
objects, so a simsan report is a :class:`~repro.lint.engine.LintReport`
that the existing text/JSON/SARIF reporters render unchanged.
"""

from __future__ import annotations

from typing import Sequence

from repro.lint.engine import LintReport
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.violations import Violation
from repro.sanitizer.checks import CHECKS

__all__ = ["build_report", "render"]


def build_report(findings: Sequence[Violation], runs: int = 0) -> LintReport:
    """Findings in report order, packed as a :class:`LintReport`.

    ``runs`` lands in the report's ``files`` slot — the closest analogue
    the reporters have for "units examined" (the text summary reads
    ``... in N files``; for simsan that is N sanitized runs).
    """
    return LintReport(
        violations=sorted(findings, key=lambda v: v.sort_key), files=runs
    )


def render(report: LintReport, fmt: str) -> str:
    """Render via the shared lint reporters with simsan check metadata."""
    if fmt == "json":
        return render_json(report)
    if fmt == "sarif":
        return render_sarif(report, rules=list(CHECKS), driver_name="simsan")
    return render_text(report)
