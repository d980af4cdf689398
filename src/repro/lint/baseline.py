"""Checked-in finding inventory (simsan's ``sanitizer/baseline.json``).

A baseline inventories findings a human audited as acceptable: every
*inventoried* finding is reported but does not fail the run, while any
finding **not** in the inventory still does.  simlint itself has no
baseline — its only waiver is the inline ``# simlint: ignore[rule]``
comment — but the runtime sanitizer reports through the same
:class:`~repro.lint.violations.Violation` records and uses this format
for its race inventory.  Entries are deliberately
coarse — ``(path suffix, rule id, count, reason)`` rather than line
numbers — so unrelated edits that shift lines don't churn the file,
while the count still catches regressions: the baseline waives at most
``count`` findings of that rule in that file, and a *stale* entry (one
that matches fewer findings than it waives) fails the run too, so the
inventory can only shrink, never silently rot.

Format (JSON, sorted)::

    {
      "format": 1,
      "entries": [
        {"path": "repro/...", "rule": "...", "count": 1,
         "reason": "one line of justification"}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.lint.violations import Violation

__all__ = ["Baseline", "BaselineEntry"]

#: Bump when the baseline file layout changes.
BASELINE_FORMAT = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One waiver: up to ``count`` findings of ``rule`` in ``path``."""

    path: str  # POSIX path suffix, matched on component boundaries
    rule: str
    count: int
    reason: str

    def matches(self, violation: Violation) -> bool:
        if violation.rule_id != self.rule:
            return False
        path = violation.path
        return path == self.path or path.endswith("/" + self.path)

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "rule": self.rule,
            "count": self.count,
            "reason": self.reason,
        }


class Baseline:
    """A loaded baseline, ready to be applied to a violation list."""

    def __init__(self, entries: Sequence[BaselineEntry] = ()):
        self.entries = list(entries)

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(())

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Parse a baseline file; malformed files raise ``ValueError``
        (a corrupt waiver inventory must never silently waive
        everything or nothing)."""
        try:
            raw = json.loads(Path(path).read_text("utf-8"))
        except OSError as error:
            raise ValueError(f"cannot read baseline {path}: {error}")
        except json.JSONDecodeError as error:
            raise ValueError(f"baseline {path} is not JSON: {error}")
        if (
            not isinstance(raw, dict)
            or raw.get("format") != BASELINE_FORMAT
            or not isinstance(raw.get("entries"), list)
        ):
            raise ValueError(
                f"baseline {path}: expected "
                f'{{"format": {BASELINE_FORMAT}, "entries": [...]}}'
            )
        entries = []
        for item in raw["entries"]:
            try:
                entries.append(
                    BaselineEntry(
                        path=str(item["path"]),
                        rule=str(item["rule"]),
                        count=int(item["count"]),
                        reason=str(item.get("reason", "")),
                    )
                )
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"baseline {path}: bad entry {item!r} ({error})"
                )
        return cls(entries)

    def apply(
        self, violations: Sequence[Violation]
    ) -> Tuple[List[Violation], List[BaselineEntry]]:
        """``(violations with matches marked baselined, stale entries)``.

        Findings are consumed in report order; each entry waives its
        first ``count`` unsuppressed matches.  Entries left with
        unconsumed budget are *stale* — the code got cleaner than the
        inventory claims — and are returned so the caller can fail the
        run until the baseline is trimmed.
        """
        remaining: Dict[int, int] = {
            index: entry.count
            for index, entry in enumerate(self.entries)
        }
        result: List[Violation] = []
        for violation in violations:
            if violation.suppressed:
                result.append(violation)
                continue
            waived = False
            for index, entry in enumerate(self.entries):
                if remaining[index] > 0 and entry.matches(violation):
                    remaining[index] -= 1
                    result.append(violation.as_baselined())
                    waived = True
                    break
            if not waived:
                result.append(violation)
        stale = [
            entry
            for index, entry in enumerate(self.entries)
            if remaining[index] > 0
        ]
        return result, stale

    @classmethod
    def from_violations(
        cls,
        violations: Sequence[Violation],
        reason: str = "inventoried by --update-baseline",
    ) -> "Baseline":
        """A baseline inventorying every live finding given."""
        counts: Dict[Tuple[str, str], int] = {}
        for violation in violations:
            if not violation.counts:
                continue
            key = (violation.path, violation.rule_id)
            counts[key] = counts.get(key, 0) + 1
        entries = [
            BaselineEntry(
                path=path, rule=rule, count=count, reason=reason
            )
            for (path, rule), count in sorted(counts.items())
        ]
        return cls(entries)

    def write(self, path: Path) -> None:
        """Serialize (sorted, trailing newline) for stable diffs."""
        payload = {
            "format": BASELINE_FORMAT,
            "entries": [
                entry.as_dict()
                for entry in sorted(
                    self.entries,
                    key=lambda e: (e.path, e.rule),
                )
            ],
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            "utf-8",
        )

    def __len__(self) -> int:
        return len(self.entries)
