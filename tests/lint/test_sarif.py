"""SARIF 2.1.0 reporter: structure, levels, suppressions."""

import json

from repro.lint.engine import LintReport
from repro.lint.registry import all_project_rules, all_rules
from repro.lint.reporters import render_sarif
from repro.lint.violations import Violation


def sarif_of(violations, rules=None):
    report = LintReport(violations=list(violations), files=1)
    return json.loads(render_sarif(report, rules))


def finding(**overrides):
    base = dict(
        rule_id="wall-clock",
        path="src/repro/core/x.py",
        line=3,
        col=5,
        message="m",
    )
    base.update(overrides)
    return Violation(**base)


class TestStructure:
    def test_top_level_shape(self):
        doc = sarif_of([finding()])
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"

    def test_every_registered_rule_is_described(self):
        doc = sarif_of([])
        descriptors = doc["runs"][0]["tool"]["driver"]["rules"]
        described = {d["id"] for d in descriptors}
        expected = {r.rule_id for r in all_rules()} | {
            r.rule_id for r in all_project_rules()
        }
        assert described == expected
        for descriptor in descriptors:
            assert descriptor["shortDescription"]["text"]
            assert descriptor["defaultConfiguration"]["level"] in (
                "error",
                "warning",
                "note",
            )

    def test_result_location_and_rule_index(self):
        doc = sarif_of([finding()])
        run = doc["runs"][0]
        (result,) = run["results"]
        assert result["ruleId"] == "wall-clock"
        index = result["ruleIndex"]
        assert (
            run["tool"]["driver"]["rules"][index]["id"]
            == "wall-clock"
        )
        location = result["locations"][0]["physicalLocation"]
        assert (
            location["artifactLocation"]["uri"]
            == "src/repro/core/x.py"
        )
        assert location["region"]["startLine"] == 3
        assert location["region"]["startColumn"] == 5

    def test_unknown_rule_id_has_no_rule_index(self):
        doc = sarif_of([finding(rule_id="parse-error")])
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "parse-error"
        assert "ruleIndex" not in result


class TestLevelsAndSuppressions:
    def test_severity_maps_to_sarif_level(self):
        doc = sarif_of(
            [
                finding(line=1, severity="error"),
                finding(line=2, severity="warning"),
                finding(line=3, severity="info"),
            ]
        )
        levels = [
            r["level"] for r in doc["runs"][0]["results"]
        ]
        assert levels == ["error", "warning", "note"]

    def test_inline_suppression_marked_in_source(self):
        doc = sarif_of([finding(suppressed=True)])
        (result,) = doc["runs"][0]["results"]
        assert result["suppressions"][0]["kind"] == "inSource"

    def test_live_findings_carry_no_suppressions(self):
        doc = sarif_of([finding()])
        (result,) = doc["runs"][0]["results"]
        assert "suppressions" not in result


class TestSchemaValidation:
    def test_validates_against_sarif_schema_subset(self):
        """Hand-rolled structural validation of the SARIF invariants
        code scanners rely on (the full JSON schema is not vendored)."""
        doc = sarif_of(
            [
                finding(),
                finding(line=9, suppressed=True),
            ]
        )
        assert isinstance(doc["runs"], list)
        for run in doc["runs"]:
            driver = run["tool"]["driver"]
            assert isinstance(driver["name"], str)
            ids = [d["id"] for d in driver["rules"]]
            assert ids == sorted(ids)  # deterministic ordering
            for result in run["results"]:
                assert isinstance(result["message"]["text"], str)
                assert result["level"] in ("error", "warning", "note")
                for location in result["locations"]:
                    region = location["physicalLocation"]["region"]
                    assert region["startLine"] >= 1
                    assert region["startColumn"] >= 1

    def test_output_is_deterministic(self):
        violations = [finding(), finding(line=9)]
        first = render_sarif(
            LintReport(violations=violations, files=1)
        )
        second = render_sarif(
            LintReport(violations=list(violations), files=1)
        )
        assert first == second
