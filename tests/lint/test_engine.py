"""Engine tests: discovery, the report, and the one-pass run."""

import ast
import gc

import pytest

from repro.lint.engine import discover_files, lint_paths
from repro.lint.registry import Rule

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


class TestOnePass:
    """File rules and the project model share one parse per file."""

    FILES = {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/streams.py": (
            "def register_stream(name):\n"
            "    return name\n"
            "\n"
            "register_stream('page-count')\n"
        ),
        "repro/core/__init__.py": "",
        "repro/core/user.py": (
            "def setup(streams):\n"
            "    return streams.get('page-cuont')\n"
        ),
        "repro/core/bad.py": DIRTY,
        "repro/core/broken.py": "def broken(:\n",
    }

    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, self.FILES)
        files = [f.as_posix() for f in discover_files([root])]
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = lint_paths([root])
        assert parsed == files
        # Both passes ran on the shared trees: a file-rule finding, a
        # project-rule finding, and the file that does not parse.
        assert sorted(
            (v.rule_id, v.path[len(root.as_posix()) + 1:])
            for v in report.violations
        ) == [
            ("id-keyed-container", "repro/core/bad.py"),
            ("parse-error", "repro/core/broken.py"),
            ("stream-registry", "repro/core/user.py"),
        ]


class _CollectorProbe(Rule):
    """A file rule that records whether the collector runs, and may
    fail."""

    rule_id = "collector-probe"

    def __init__(self, fail=False):
        self.seen = []
        self.fail = fail

    def check(self, tree, source, path):
        self.seen.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("probe failed")
        return []


class TestCollectorPause:
    """The cyclic collector is paused while the parsed trees are alive
    and restored however the run ends."""

    def test_paused_during_the_run_and_restored(self, tmp_path):
        root = write_tree(tmp_path, {"a.py": CLEAN, "b.py": CLEAN})
        probe = _CollectorProbe()
        assert gc.isenabled()
        lint_paths([root], rules=[probe])
        assert probe.seen == [False, False]
        assert gc.isenabled()

    def test_restored_after_a_raise(self, tmp_path):
        root = write_tree(tmp_path, {"a.py": CLEAN})
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="probe failed"):
            lint_paths([root], rules=[_CollectorProbe(fail=True)])
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, tmp_path):
        root = write_tree(tmp_path, {"a.py": CLEAN})
        gc.disable()
        try:
            lint_paths([root], rules=[_CollectorProbe()])
            assert not gc.isenabled()
        finally:
            gc.enable()
