"""The project pass: ``stream-registry`` over every linted module.

Fixture packages are built under ``tmp_path`` with a real ``repro/``
package directory so the rule's path scoping applies to them exactly
as it does to the shipped tree.
"""

import ast
import textwrap

import pytest

from repro.lint.engine import discover_files, lint_paths
from repro.lint.project import ProjectModel, StreamRegistryRule


def build_package(tmp_path, files):
    """Write ``files`` (relative path -> source) under a fixture root,
    auto-creating ``__init__.py`` so every directory is a package."""
    root = tmp_path / "pkg"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), "utf-8")
        parent = path.parent
        while parent != root:  # the root itself stays a plain dir
            marker = parent / "__init__.py"
            if not marker.exists():
                marker.write_text("", "utf-8")
            parent = parent.parent
    return root


def model_of(tmp_path, files):
    root = build_package(tmp_path, files)
    parsed = []
    for path in discover_files([root]):
        source = path.read_text("utf-8")
        parsed.append((path, ast.parse(source), source))
    return ProjectModel.build(parsed)


def run_rule(tmp_path, rule, files):
    root = build_package(tmp_path, files)
    report = lint_paths([root], rules=[], project_rules=[rule])
    return report.violations


# ======================================================================
# stream-registry
# ======================================================================

_STREAMS_MODULE = """
    def register_stream(name, description=""):
        return name

    register_stream("page-count")
    register_stream("think-{terminal}")
"""

_ROUTER_STREAMS_MODULE = """
    def register_stream(name, description=""):
        return name

    register_stream("page-skew")
    register_stream("router-explore")
    register_stream("router-choice")
"""


class TestStreamRegistry:
    def test_misspelled_stream_name_is_one_error(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("page-cuont")
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "stream-registry"
        assert violation.severity == "error"
        assert "page-cuont" in violation.message

    def test_registered_exact_and_prefixed_draws_pass(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams, terminal):
                        a = streams.get("page-count")
                        b = streams.get(f"think-{terminal}")
                        return a, b
                """,
            },
        )
        assert violations == []

    def test_typoed_fstring_head_is_flagged(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams, terminal):
                        return streams.get(f"thinkk-{terminal}")
                """,
            },
        )
        assert [v.rule_id for v in violations] == ["stream-registry"]

    def test_misspelled_fresh_stream_is_one_error(self, tmp_path):
        """``fresh`` builds a stream from its name just as ``get``
        does, so a typo there forks a sequence all the same."""
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def think(streams, t):
                        return streams.fresh(f"thnk-{t}")
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "stream-registry"
        assert "thnk-" in violation.message

    def test_registered_fresh_stream_passes(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def think(streams, t):
                        return streams.fresh(f"think-{t}")
                """,
            },
        )
        assert violations == []

    def test_unregistered_router_stream_is_one_error(self, tmp_path):
        """The ``router-*`` family is a set of discrete registered
        names, not a pattern: a draw from an uninvented sibling
        (``router-tiebreak``) is the seeded violation."""
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _ROUTER_STREAMS_MODULE,
                "repro/router/classifier.py": """
                    def choose(streams):
                        return streams.get("router-tiebreak")
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "stream-registry"
        assert "router-tiebreak" in violation.message
        assert violation.path.endswith("repro/router/classifier.py")

    def test_registered_router_streams_pass(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _ROUTER_STREAMS_MODULE,
                "repro/router/classifier.py": """
                    def choose(streams):
                        coin = streams.get("router-explore")
                        pick = streams.get("router-choice")
                        return coin, pick
                """,
            },
        )
        assert violations == []

    def test_dynamic_names_are_never_flagged(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams, name):
                        return streams.get(name)
                """,
            },
        )
        assert violations == []

    def test_no_registry_in_model_means_no_findings(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("anything-goes")
                """,
            },
        )
        assert violations == []

    def test_stream_registry_extracted_statically(self, tmp_path):
        model = model_of(
            tmp_path,
            {
                "repro/sim/streams.py": """
                    def register_stream(name, description=""):
                        return name

                    register_stream("page-count", "pages per txn")
                    register_stream("think-{terminal}")
                """,
            },
        )
        assert model.stream_registry() == [
            "page-count",
            "think-{terminal}",
        ]


# ======================================================================
# Engine integration
# ======================================================================


class TestEngineIntegration:
    def test_default_lint_paths_runs_project_rules(self, tmp_path):
        root = build_package(
            tmp_path,
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("page-cuont")
                """,
            },
        )
        report = lint_paths([root])  # rules=None: everything runs
        assert "stream-registry" in {
            v.rule_id for v in report.violations
        }
        assert not report.ok

    def test_explicit_file_rules_skip_project_pass(self, tmp_path):
        root = build_package(
            tmp_path,
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("page-cuont")
                """,
            },
        )
        report = lint_paths([root], rules=[])
        assert report.violations == []

    def test_inline_suppression_waives_project_finding(
        self, tmp_path
    ):
        root = build_package(
            tmp_path,
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": (
                    "def setup(streams):\n"
                    "    return streams.get('page-cuont')"
                    "  # simlint: ignore[stream-registry]\n"
                ),
            },
        )
        report = lint_paths([root])
        assert report.ok
        assert [v.rule_id for v in report.suppressed] == [
            "stream-registry"
        ]


@pytest.mark.parametrize("rule_id", ["stream-registry"])
def test_project_rules_are_registered(rule_id):
    from repro.lint.registry import all_project_rules

    assert rule_id in {r.rule_id for r in all_project_rules()}
