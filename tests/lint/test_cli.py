"""CLI tests: exit codes, formats, rule selection, text output."""

import json

import pytest

from repro.lint.cli import main

CLEAN = "def fine():\n    return 1\n"
DIRTY = "jobs[id(event)] = job\n"
SUPPRESSED = (
    "jobs[id(event)] = job  # simlint: ignore[id-keyed-container]\n"
)

RULE_IDS = [
    "float-time-equality",
    "id-keyed-container",
    "unordered-iteration",
    "unseeded-global-random",
    "wall-clock",
    "stream-registry",
]


@pytest.fixture
def tree(tmp_path):
    def build(files):
        root = tmp_path / "tree"
        for relative, source in files.items():
            path = root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return root

    return build


def run_cli(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        root = tree({"a.py": CLEAN})
        assert run_cli([root]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one(self, tree, capsys):
        root = tree({"bad.py": DIRTY})
        assert run_cli([root]) == 1
        out = capsys.readouterr().out
        assert "id-keyed-container" in out
        assert "bad.py:1:" in out

    def test_suppressed_tree_exits_zero(self, tree, capsys):
        root = tree({"a.py": SUPPRESSED})
        assert run_cli([root]) == 0
        out = capsys.readouterr().out
        assert "1 suppressed" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert run_cli([tmp_path / "nope"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tree, capsys):
        root = tree({"a.py": CLEAN})
        code = run_cli(
            [root, "--select", "no-such-rule"]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err


class TestJsonFormat:
    def test_json_payload(self, tree, capsys):
        root = tree({"bad.py": DIRTY, "ok.py": SUPPRESSED})
        code = run_cli([root, "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 4
        assert payload["summary"] == {
            "files": 2,
            "violations": 1,
            "failures": 1,
            "suppressed": 1,
            "ok": False,
        }
        by_suppressed = {
            v["suppressed"]: v for v in payload["violations"]
        }
        assert by_suppressed[False]["rule_id"] == "id-keyed-container"
        assert by_suppressed[True]["rule_id"] == "id-keyed-container"

    def test_json_clean(self, tree, capsys):
        root = tree({"a.py": CLEAN})
        assert run_cli([root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is True
        assert payload["violations"] == []


class TestSelection:
    def test_select_limits_rules(self, tree, capsys):
        root = tree({"bad.py": DIRTY})
        code = run_cli(
            [root, "--select", "wall-clock"]
        )
        assert code == 0  # id-keyed rule not selected
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert run_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [
            line.split()[0]
            for line in out.splitlines()
            if line and not line[0].isspace()
        ]
        assert listed == RULE_IDS


class TestGlobSelection:
    def test_select_glob_expands_to_matching_rules(
        self, tree, capsys
    ):
        root = tree({"bad.py": DIRTY})
        # id-keyed-container matches "id-*"; the finding survives.
        assert run_cli([root, "--select", "id-*"]) == 1
        capsys.readouterr()

    def test_ignore_glob_drops_matching_rules(self, tree, capsys):
        root = tree({"bad.py": DIRTY})
        code = run_cli([root, "--ignore", "id-*"])
        assert code == 0
        capsys.readouterr()

    def test_unmatched_ignore_pattern_exits_two(self, tree, capsys):
        root = tree({"a.py": CLEAN})
        code = run_cli([root, "--ignore", "zzz-*"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_select_can_name_project_rules(self, tree, capsys):
        root = tree({"a.py": CLEAN})
        code = run_cli(
            [root, "--select", "stream-registry"]
        )
        assert code == 0
        capsys.readouterr()

    def test_list_rules_includes_project_rules_and_severity(
        self, capsys
    ):
        assert run_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("stream-registry", "float-time-equality"):
            assert rule_id in out
        assert "error" in out


class TestSarifFormat:
    def test_sarif_output_parses_and_exits_one_on_findings(
        self, tree, capsys
    ):
        root = tree({"bad.py": DIRTY})
        code = run_cli([root, "--format", "sarif"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == [
            "id-keyed-container"
        ]


class TestTextOutput:
    def test_show_suppressed(self, tree, capsys):
        root = tree({"a.py": SUPPRESSED})
        run_cli([root, "--show-suppressed"])
        assert "(suppressed)" in capsys.readouterr().out
