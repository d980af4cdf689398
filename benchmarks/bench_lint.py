"""Full-tree lint timing benchmark.

simlint gates CI, so its own runtime is part of the perf trajectory:
every new rule adds latency to every push.  This benchmark lints
``src``, ``benchmarks``, and ``tests`` and appends the timings to
``BENCH_lint.json`` at the repo root (override with
``$REPRO_BENCH_OUT``):

* **full** — one complete run: read and parse each file once, the file
  rules, then the project model and ``stream-registry`` over the same
  trees (what CI pays);
* **project pass** — the model build and ``stream-registry``, over
  trees parsed beforehand (the pass parses nothing itself).

It asserts that the full run linted every discovered file.  That each
file is parsed exactly once is pinned by
``tests/lint/test_engine.py::TestOnePass``, not by a timing gate.

Run standalone for a quick reading::

    python benchmarks/bench_lint.py

or through pytest (same JSON record)::

    pytest benchmarks/bench_lint.py -q
"""

from __future__ import annotations

import ast
import json
import time
from pathlib import Path

# Imported first: it puts src/ on the path for standalone runs.
from trajectory import REPO_ROOT, append_record, out_path

from repro.lint.engine import discover_files, lint_paths
from repro.lint.project import ProjectModel
from repro.lint.registry import all_project_rules

DEFAULT_OUT = REPO_ROOT / "BENCH_lint.json"
LINTED_TREES = ("src", "benchmarks", "tests")


def _roots() -> list[Path]:
    return [REPO_ROOT / tree for tree in LINTED_TREES]


def run_benchmark() -> dict:
    """Full-run and project-pass timings over the real tree."""
    started = time.perf_counter()
    report = lint_paths(_roots())
    full_seconds = time.perf_counter() - started

    files = discover_files(_roots())
    parsed = []
    for path in files:
        source = path.read_bytes().decode("utf-8", errors="replace")
        parsed.append((path, ast.parse(source), source))
    started = time.perf_counter()
    model = ProjectModel.build(parsed)
    project_findings = sum(
        len(rule.check_project(model))
        for rule in all_project_rules()
    )
    project_seconds = time.perf_counter() - started
    assert report.files == len(files) > 0, "a discovered file was skipped"

    return {
        "benchmark": "lint_full_tree",
        "trees": list(LINTED_TREES),
        "files": report.files,
        "violations_total": len(report.violations),
        "project_findings": project_findings,
        "full_seconds": round(full_seconds, 4),
        "project_pass_seconds": round(project_seconds, 4),
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }


def test_lint_full_tree_timing():
    """Record the lint timings; every discovered file was linted."""
    record = run_benchmark()
    append_record(record, out_path(DEFAULT_OUT))
    print(json.dumps(record, indent=2))


if __name__ == "__main__":  # pragma: no cover
    test_lint_full_tree_timing()
