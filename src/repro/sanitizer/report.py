"""Bridge simsan findings into the lint reporting machinery.

Runtime findings are ordinary :class:`~repro.lint.violations.Violation`
objects, so this module only has to (a) apply ``# simsan:
waive[check-id]`` inline comments by reading the anchored source line,
(b) apply the checked-in sanitizer baseline
(``src/repro/sanitizer/baseline.json``, in the
:mod:`repro.lint.baseline` format), and (c) pack everything into a
:class:`~repro.lint.engine.LintReport` that the existing
text/JSON/SARIF reporters render unchanged.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.lint.baseline import Baseline
from repro.lint.engine import LintReport
from repro.lint.reporters import render_json, render_sarif, render_text
from repro.lint.violations import Violation
from repro.sanitizer.checks import CHECKS

__all__ = [
    "apply_waivers",
    "build_report",
    "default_baseline_path",
    "render",
]

_WAIVE_RE = re.compile(r"#\s*simsan:\s*waive\[([A-Za-z0-9_,\- ]+)\]")

#: Where anchored paths are resolved from: findings carry repo- or
#: src-relative POSIX paths (see :func:`repro.sanitizer.core.relative_path`).
_SRC_ROOT = Path(__file__).resolve().parents[2]
_REPO_ROOT = _SRC_ROOT.parent


def default_baseline_path() -> Path:
    """The committed sanitizer baseline shipped next to this module."""
    return Path(__file__).parent / "baseline.json"


def _resolve(path: str) -> Optional[Path]:
    if path.startswith("<"):
        return None
    for root in (Path.cwd(), _SRC_ROOT, _REPO_ROOT):
        candidate = root / path
        if candidate.is_file():
            return candidate
    return None


def _waived_lines(path: str, cache: Dict[str, Dict[int, Set[str]]]) -> Dict[int, Set[str]]:
    waivers = cache.get(path)
    if waivers is not None:
        return waivers
    waivers = {}
    resolved = _resolve(path)
    if resolved is not None:
        try:
            source = resolved.read_text("utf-8")
        except OSError:
            source = ""
        for line_number, line in enumerate(source.splitlines(), start=1):
            if "simsan" not in line:
                continue
            match = _WAIVE_RE.search(line)
            if match is None:
                continue
            ids = {
                fragment.strip()
                for fragment in match.group(1).split(",")
                if fragment.strip()
            }
            if ids:
                waivers[line_number] = ids
    cache[path] = waivers
    return waivers


def apply_waivers(findings: Sequence[Violation]) -> List[Violation]:
    """Mark findings whose anchored line carries a matching waiver."""
    cache: Dict[str, Dict[int, Set[str]]] = {}
    result: List[Violation] = []
    for violation in findings:
        waived = _waived_lines(violation.path, cache).get(violation.line, ())
        if violation.rule_id in waived:
            result.append(violation.as_suppressed())
        else:
            result.append(violation)
    return result


def build_report(
    findings: Sequence[Violation],
    runs: int = 0,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Waivers + baseline applied, packed as a :class:`LintReport`.

    ``runs`` lands in the report's ``files`` slot — the closest analogue
    the reporters have for "units examined" (the text summary reads
    ``... in N files``; for simsan that is N sanitized runs).
    """
    if baseline is None:
        path = default_baseline_path()
        baseline = Baseline.load(path) if path.is_file() else Baseline.empty()
    ordered = sorted(findings, key=lambda v: v.sort_key)
    ordered = apply_waivers(ordered)
    ordered, stale = baseline.apply(ordered)
    return LintReport(
        violations=ordered, files=runs, stale_baseline=stale
    )


def render(report: LintReport, fmt: str, show_suppressed: bool = False) -> str:
    """Render via the shared lint reporters with simsan check metadata."""
    if fmt == "json":
        return render_json(report)
    if fmt == "sarif":
        return render_sarif(report, rules=list(CHECKS), driver_name="simsan")
    return render_text(report, show_suppressed=show_suppressed)
