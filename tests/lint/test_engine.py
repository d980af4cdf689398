"""Engine tests: discovery, per-file caching, invalidation."""

import importlib.util
import json
import sys
import textwrap

import pytest

from repro.lint.cache import LintCache
from repro.lint.engine import discover_files, lint_paths
from repro.lint.registry import (
    _SOURCE_HASH_CACHE,
    all_rules,
    module_source_hash,
    rules_signature,
)

CLEAN = "def fine():\n    return 1\n"
DIRTY = "jobs[id(event)] = job\n"


def write_tree(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


class TestDiscovery:
    def test_recursive_sorted_discovery(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "b/inner.py": CLEAN,
                "a.py": CLEAN,
                "b/__pycache__/junk.py": DIRTY,
                "notes.txt": "not python",
            },
        )
        files = discover_files([tmp_path])
        names = [f.relative_to(tmp_path).as_posix() for f in files]
        assert names == ["a.py", "b/inner.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_files([tmp_path / "nope"])

    def test_duplicate_paths_deduplicated(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN})
        files = discover_files([tmp_path, tmp_path / "a.py"])
        assert len(files) == 1


class TestReport:
    def test_clean_tree_is_ok(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN})
        report = lint_paths([tmp_path])
        assert report.ok
        assert report.files == 1
        assert report.violations == []

    def test_violations_fail_the_report(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN, "bad.py": DIRTY})
        report = lint_paths([tmp_path])
        assert not report.ok
        assert [v.rule_id for v in report.active] == [
            "id-keyed-container"
        ]

    def test_suppressed_findings_keep_report_ok(self, tmp_path):
        source = (
            "jobs[id(event)] = job"
            "  # simlint: ignore[id-keyed-container]\n"
        )
        write_tree(tmp_path, {"a.py": source})
        report = lint_paths([tmp_path])
        assert report.ok
        assert len(report.suppressed) == 1


class TestCache:
    def test_second_run_hits_cache_with_identical_results(
        self, tmp_path
    ):
        root = write_tree(
            tmp_path / "tree", {"a.py": CLEAN, "bad.py": DIRTY}
        )
        cache_path = tmp_path / "cache.json"

        first = lint_paths([root], cache=LintCache(cache_path))
        assert first.cache_hits == 0
        assert cache_path.exists()

        second = lint_paths([root], cache=LintCache(cache_path))
        assert second.cache_hits == second.files == 2
        assert [v.as_dict() for v in second.violations] == [
            v.as_dict() for v in first.violations
        ]

    def test_edited_file_misses_cache(self, tmp_path):
        root = write_tree(tmp_path / "tree", {"a.py": CLEAN})
        cache_path = tmp_path / "cache.json"
        lint_paths([root], cache=LintCache(cache_path))

        (root / "a.py").write_text(DIRTY)
        report = lint_paths([root], cache=LintCache(cache_path))
        assert report.cache_hits == 0
        assert not report.ok

    def test_rule_set_change_invalidates(self, tmp_path):
        root = write_tree(tmp_path / "tree", {"bad.py": DIRTY})
        cache_path = tmp_path / "cache.json"
        lint_paths([root], cache=LintCache(cache_path))

        # A reduced rule set has a different signature: the cached
        # verdict for the full set must not be served for it.
        subset = [
            rule
            for rule in all_rules()
            if rule.rule_id != "id-keyed-container"
        ]
        assert rules_signature(subset) != rules_signature()
        report = lint_paths(
            [root], rules=subset, cache=LintCache(cache_path)
        )
        assert report.cache_hits == 0
        assert report.ok

    def test_cache_hit_rebinds_path(self, tmp_path):
        """Entries are content-keyed; a moved file must report its
        current location, not where the content was first seen."""
        root_a = write_tree(tmp_path / "a", {"bad.py": DIRTY})
        root_b = write_tree(tmp_path / "b", {"moved.py": DIRTY})
        cache_path = tmp_path / "cache.json"
        lint_paths([root_a], cache=LintCache(cache_path))

        report = lint_paths([root_b], cache=LintCache(cache_path))
        assert report.cache_hits == 1
        assert report.violations[0].path.endswith("b/moved.py")

    def test_corrupt_cache_recovers(self, tmp_path):
        root = write_tree(tmp_path / "tree", {"bad.py": DIRTY})
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{ not json")
        report = lint_paths([root], cache=LintCache(cache_path))
        assert not report.ok
        # And the rewritten cache is valid JSON again.
        assert json.loads(cache_path.read_text())["entries"]


_RULE_MODULE = """
    from repro.lint.registry import Rule


    class TempRule(Rule):
        rule_id = "temp-pass-statement"
        summary = "flags every pass statement"

        def check(self, tree, source, path):
            import ast

            return [
                self.violation(path, node)
                for node in ast.walk(tree)
                if isinstance(node, ast.Pass)
            ]
"""

_RULE_MODULE_REFORMATTED = """
    # A comment, and different spacing — same structure.
    from repro.lint.registry import Rule

    class TempRule(Rule):
        rule_id = "temp-pass-statement"
        summary = "flags every pass statement"
        def check(self, tree, source, path):
            import ast
            return [self.violation(path, node)
                for node in ast.walk(tree)
                if isinstance(node, ast.Pass)]
"""

_RULE_MODULE_EDITED = """
    from repro.lint.registry import Rule


    class TempRule(Rule):
        rule_id = "temp-pass-statement"
        summary = "flags every pass statement"

        def check(self, tree, source, path):
            import ast

            return [
                self.violation(path, node)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Pass, ast.Break))
            ]
"""


def load_rule(path, module_name="temp_lint_rule"):
    """Import a rule class from a file the way a plugin would."""
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module  # inspect.getfile needs this
    spec.loader.exec_module(module)
    return module.TempRule()


class TestSourceHashHardening:
    """Cache keys cover rule *logic*, not rule-module formatting."""

    @pytest.fixture(autouse=True)
    def _clean_memo_and_modules(self):
        yield
        _SOURCE_HASH_CACHE.clear()
        sys.modules.pop("temp_lint_rule", None)

    def test_whitespace_only_edit_keeps_module_hash(self, tmp_path):
        path = tmp_path / "rule_module.py"
        path.write_text(textwrap.dedent(_RULE_MODULE))
        before = module_source_hash(str(path))
        _SOURCE_HASH_CACHE.clear()
        path.write_text(textwrap.dedent(_RULE_MODULE_REFORMATTED))
        assert module_source_hash(str(path)) == before

    def test_logic_edit_changes_module_hash(self, tmp_path):
        path = tmp_path / "rule_module.py"
        path.write_text(textwrap.dedent(_RULE_MODULE))
        before = module_source_hash(str(path))
        _SOURCE_HASH_CACHE.clear()
        path.write_text(textwrap.dedent(_RULE_MODULE_EDITED))
        assert module_source_hash(str(path)) != before

    def test_rule_logic_edit_busts_cache(self, tmp_path):
        """Editing a rule's code re-runs analysis even though neither
        the linted file nor the rule's declared version changed."""
        rule_path = tmp_path / "rule_module.py"
        rule_path.write_text(textwrap.dedent(_RULE_MODULE))
        root = write_tree(
            tmp_path / "tree", {"a.py": "def f():\n    pass\n"}
        )
        cache_path = tmp_path / "cache.json"

        rule = load_rule(rule_path)
        first = lint_paths(
            [root], rules=[rule], cache=LintCache(cache_path)
        )
        assert first.cache_hits == 0
        assert len(first.violations) == 1

        rule_path.write_text(textwrap.dedent(_RULE_MODULE_EDITED))
        _SOURCE_HASH_CACHE.clear()
        edited = load_rule(rule_path)
        assert edited.version == rule.version  # only the code moved
        second = lint_paths(
            [root], rules=[edited], cache=LintCache(cache_path)
        )
        assert second.cache_hits == 0

    def test_whitespace_rule_edit_is_served_from_cache(
        self, tmp_path
    ):
        rule_path = tmp_path / "rule_module.py"
        rule_path.write_text(textwrap.dedent(_RULE_MODULE))
        root = write_tree(
            tmp_path / "tree", {"a.py": "def f():\n    pass\n"}
        )
        cache_path = tmp_path / "cache.json"

        rule = load_rule(rule_path)
        lint_paths([root], rules=[rule], cache=LintCache(cache_path))

        rule_path.write_text(textwrap.dedent(_RULE_MODULE_REFORMATTED))
        _SOURCE_HASH_CACHE.clear()
        reformatted = load_rule(rule_path)
        report = lint_paths(
            [root],
            rules=[reformatted],
            cache=LintCache(cache_path),
        )
        assert report.cache_hits == 1

