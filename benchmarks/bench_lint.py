"""Full-tree lint timing benchmark (cold and warm cache).

simlint gates CI, so its own runtime is part of the perf trajectory:
every new rule — and especially the whole-program pass, which cannot
be cached per file — adds latency to every push.  This benchmark runs
the linter over ``src``, ``benchmarks``, and ``tests`` three ways and
appends the timings to ``BENCH_lint.json`` at the repo root (override
with ``$REPRO_BENCH_OUT``):

* **cold** — empty cache, file rules + project rules (what a fresh CI
  container pays);
* **warm** — second run against the populated cache (what an
  incremental run pays: cache hits plus the uncacheable project pass);
* **project-only** — the whole-program pass alone (model build + all
  project rules).

With ``$REPRO_BENCH_ENFORCE`` set (the CI lint job), the warm-cache
contract is gated: the warm run must hit the cache for every file and
stay at least :data:`WARM_SPEEDUP_FLOOR` times faster than cold — if
a rule's cache signature starts churning per run, warm degenerates to
cold and this trips.

Run standalone for a quick reading::

    python benchmarks/bench_lint.py

or through pytest (same JSON record)::

    pytest benchmarks/bench_lint.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

# Imported first: it puts src/ on the path for standalone runs.
from trajectory import REPO_ROOT, append_record, out_path

from repro.lint.cache import LintCache
from repro.lint.engine import discover_files, lint_paths

DEFAULT_OUT = REPO_ROOT / "BENCH_lint.json"
LINTED_TREES = ("src", "benchmarks", "tests")

#: Warm runs must be at least this much faster than cold runs when
#: ``$REPRO_BENCH_ENFORCE`` is set.
WARM_SPEEDUP_FLOOR = 1.2


def _roots() -> list[Path]:
    return [REPO_ROOT / tree for tree in LINTED_TREES]


def _time_lint(cache: LintCache | None, **kwargs) -> tuple[float, object]:
    started = time.perf_counter()
    report = lint_paths(_roots(), cache=cache, **kwargs)
    return time.perf_counter() - started, report


def run_benchmark(tmp_cache: Path) -> dict:
    """Cold, warm, and project-only timings over the real tree."""
    cold_seconds, cold = _time_lint(LintCache(tmp_cache))
    warm_seconds, warm = _time_lint(LintCache(tmp_cache))

    started = time.perf_counter()
    from repro.lint.project import ProjectModel
    from repro.lint.registry import all_project_rules

    model = ProjectModel.build(discover_files(_roots()))
    project_findings = sum(
        len(rule.check_project(model))
        for rule in all_project_rules()
    )
    project_seconds = time.perf_counter() - started

    return {
        "benchmark": "lint_full_tree",
        "trees": list(LINTED_TREES),
        "files": cold.files,
        "violations_total": len(cold.violations),
        "project_findings": project_findings,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_cache_hits": warm.cache_hits,
        "project_pass_seconds": round(project_seconds, 4),
        "warm_speedup": round(
            cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
            2,
        ),
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }


def test_lint_full_tree_timing(tmp_path=None):
    """Record cold/warm lint timings; sanity-check cache behaviour."""
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        cache_file = Path(scratch) / "simlint-bench-cache.json"
        record = run_benchmark(cache_file)
    append_record(record, out_path(DEFAULT_OUT))
    print(json.dumps(record, indent=2))
    # The warm run must actually hit the cache for every file.
    assert record["warm_cache_hits"] == record["files"]
    if os.environ.get("REPRO_BENCH_ENFORCE"):
        assert record["warm_speedup"] >= WARM_SPEEDUP_FLOOR, (
            f"warm lint run only {record['warm_speedup']}x faster "
            f"than cold (floor {WARM_SPEEDUP_FLOOR}x): the per-file "
            f"cache is not paying for itself — check the rule-set "
            f"signature for per-run churn"
        )


if __name__ == "__main__":  # pragma: no cover
    test_lint_full_tree_timing()
