"""Baseline add/expire semantics (the inventory format of simsan's
race baseline; simlint itself waives only inline)."""

import json

import pytest

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.violations import Violation


def finding(path="src/repro/core/x.py", rule="wall-clock", line=3):
    return Violation(
        rule_id=rule, path=path, line=line, col=1, message="m"
    )


class TestMatching:
    def test_suffix_matches_on_component_boundaries(self):
        entry = BaselineEntry(
            path="repro/core/x.py", rule="wall-clock", count=1,
            reason="r",
        )
        assert entry.matches(finding("src/repro/core/x.py"))
        assert entry.matches(finding("repro/core/x.py"))
        # "macro/core/x.py" ends with "ro/core/x.py" but not on a
        # component boundary — must not match.
        assert not entry.matches(finding("src/macro_repro/core/x.py"))
        assert not entry.matches(finding("src/repro/core/y.py"))

    def test_rule_must_match(self):
        entry = BaselineEntry(
            path="repro/core/x.py", rule="wall-clock", count=1,
            reason="r",
        )
        assert not entry.matches(
            finding(rule="unordered-iteration")
        )


class TestApply:
    def test_waives_up_to_count_and_reports_overflow(self):
        baseline = Baseline(
            [
                BaselineEntry(
                    path="repro/core/x.py", rule="wall-clock",
                    count=2, reason="r",
                )
            ]
        )
        violations = [finding(line=n) for n in (1, 2, 3)]
        applied, stale = baseline.apply(violations)
        assert [v.baselined for v in applied] == [True, True, False]
        assert stale == []

    def test_stale_entry_reported_when_code_got_cleaner(self):
        baseline = Baseline(
            [
                BaselineEntry(
                    path="repro/core/x.py", rule="wall-clock",
                    count=2, reason="r",
                )
            ]
        )
        applied, stale = baseline.apply([finding(line=1)])
        assert [v.baselined for v in applied] == [True]
        assert len(stale) == 1
        assert stale[0].count == 2

    def test_suppressed_findings_do_not_consume_budget(self):
        baseline = Baseline(
            [
                BaselineEntry(
                    path="repro/core/x.py", rule="wall-clock",
                    count=1, reason="r",
                )
            ]
        )
        suppressed = finding(line=1).as_suppressed()
        live = finding(line=2)
        applied, stale = baseline.apply([suppressed, live])
        assert applied[0].suppressed and not applied[0].baselined
        assert applied[1].baselined
        assert stale == []


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "baseline.json"
        original = Baseline(
            [
                BaselineEntry(
                    path="repro/a.py", rule="wall-clock", count=1,
                    reason="justified",
                )
            ]
        )
        original.write(path)
        loaded = Baseline.load(path)
        assert loaded.entries == original.entries

    def test_from_violations_counts_live_findings_only(self):
        violations = [
            finding(line=1),
            finding(line=2),
            finding(line=3).as_suppressed(),
            finding(path="src/repro/core/y.py", rule="id-keyed-container"),
        ]
        baseline = Baseline.from_violations(violations, reason="r")
        as_pairs = {
            (e.path, e.rule): e.count for e in baseline.entries
        }
        assert as_pairs == {
            ("src/repro/core/x.py", "wall-clock"): 2,
            ("src/repro/core/y.py", "id-keyed-container"): 1,
        }

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            '{"format": 99, "entries": []}',
            '{"entries": []}',
            '{"format": 1, "entries": [{"path": "x"}]}',
        ],
    )
    def test_malformed_baselines_raise(self, tmp_path, payload):
        path = tmp_path / "baseline.json"
        path.write_text(payload, "utf-8")
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValueError):
            Baseline.load(tmp_path / "nope.json")


class TestCommittedBaseline:
    """The committed simsan race baseline: every waiver is a reason."""

    def test_committed_baseline_parses(self):
        from repro.sanitizer.report import default_baseline_path

        baseline = Baseline.load(default_baseline_path())
        assert baseline.entries
        # Every committed waiver must carry a justification.
        for entry in baseline.entries:
            assert entry.reason.strip(), (
                f"baseline entry {entry.path}:{entry.rule} has no "
                "justification"
            )

    def test_committed_baseline_is_sorted_json(self):
        from repro.sanitizer.report import default_baseline_path

        raw = json.loads(default_baseline_path().read_text("utf-8"))
        entries = raw["entries"]
        keys = [(e["path"], e["rule"]) for e in entries]
        assert keys == sorted(keys)
