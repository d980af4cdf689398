"""Findings flow through the shared lint reporting machinery: the
report gate and the text/JSON/SARIF renderers."""

import json

from repro.lint.violations import Violation
from repro.sanitizer import report as report_mod
from repro.sanitizer.checks import CHECKS


def finding(rule="leak-audit", path="x.py", line=1, message="m",
            severity="error"):
    return Violation(
        rule_id=rule,
        path=path,
        line=line,
        col=0,
        message=message,
        severity=severity,
    )


class TestGate:
    def test_error_finding_fails_report(self):
        report = report_mod.build_report([finding()], runs=3)
        assert not report.ok
        assert report.files == 3  # rendered as "units examined"

    def test_warning_findings_do_not_fail_report(self):
        report = report_mod.build_report([finding(severity="warning")])
        assert report.ok


class TestRenderers:
    def report(self):
        return report_mod.build_report(
            [finding(message="orphaned process 'x'")], runs=2
        )

    def test_text_names_the_check(self):
        text = report_mod.render(self.report(), "text")
        assert "leak-audit" in text
        assert "orphaned process" in text

    def test_json_round_trips(self):
        data = json.loads(report_mod.render(self.report(), "json"))
        assert data["violations"][0]["rule_id"] == "leak-audit"

    def test_sarif_uses_simsan_driver_and_check_rules(self):
        sarif = json.loads(report_mod.render(self.report(), "sarif"))
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "simsan"
        assert sorted(r["id"] for r in driver["rules"]) == sorted(
            check.rule_id for check in CHECKS
        )
        results = sarif["runs"][0]["results"]
        assert results[0]["ruleId"] == "leak-audit"
