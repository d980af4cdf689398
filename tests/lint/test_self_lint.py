"""The repo must lint clean — CI enforces "no new violations".

This is the self-application gate: running simlint over ``src``,
``benchmarks``, and ``tests`` must produce zero unsuppressed
violations, and injecting any rule's positive fixture must break that
state (proving the gate actually bites).
"""

import json
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.reporters import render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED_TREES = ("src", "benchmarks", "tests")


def test_repo_is_violation_free():
    report = lint_paths([REPO_ROOT / tree for tree in LINTED_TREES])
    assert report.files > 100  # sanity: the walk found the repo
    assert report.ok, "\n" + render_text(report)


def test_known_suppressions_are_inventoried():
    """The waiver list is part of the reviewed state: additions must
    show up here (and be justified in the code)."""
    report = lint_paths([REPO_ROOT / tree for tree in LINTED_TREES])
    waivers = sorted(
        (Path(v.path).name, v.rule_id) for v in report.suppressed
    )
    assert waivers == (
        # Serialization-audit loops accumulate into sets (order-free).
        [("audit.py", "unordered-iteration")] * 2
        # Lock-table iteration: the holders walk of ``_blockers`` is
        # in grant order by design (conflict sets and wait-for edges
        # follow grant history), and ``release_all``'s pass over the
        # held pages touches only each page's own entry; it sorts the
        # pages whose grant passes wake waiters.
        + [("locks.py", "unordered-iteration")] * 2
    )


def test_injected_fixture_breaks_the_gate(tmp_path):
    """End-to-end: dropping one bad file into a linted tree flips the
    report to failing (what the CI job runs, minus the process)."""
    staged = tmp_path / "src" / "repro" / "cc" / "victim.py"
    staged.parent.mkdir(parents=True)
    staged.write_text(
        "def pick(victims):\n"
        "    for txn in set(victims):\n"
        "        return txn\n"
    )
    report = lint_paths(
        [REPO_ROOT / tree for tree in LINTED_TREES]
        + [tmp_path / "src"]
    )
    assert not report.ok
    assert [v.rule_id for v in report.active] == [
        "unordered-iteration"
    ]


def test_injected_stream_typo_breaks_the_project_gate(tmp_path):
    """Whole-program gate: a misspelled stream name in a new module
    is caught against the real registry in ``sim/streams.py``."""
    staged = tmp_path / "src" / "repro" / "core" / "newcode.py"
    staged.parent.mkdir(parents=True)
    staged.write_text(
        "def setup(streams):\n"
        "    return streams.get('page-cuont')\n"
    )
    report = lint_paths(
        [REPO_ROOT / tree for tree in LINTED_TREES]
        + [tmp_path / "src"]
    )
    assert not report.ok
    assert [v.rule_id for v in report.active] == ["stream-registry"]


def test_cli_sarif_with_committed_baseline_exits_zero(capsys):
    """The acceptance command: SARIF over the full tree exits zero
    (simlint has no baseline; inline waivers are the only ones) and
    its results are exactly the four inventoried suppressions."""
    from repro.lint.cli import main

    code = main(
        [str(REPO_ROOT / tree) for tree in LINTED_TREES]
        + ["--format", "sarif"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    results = doc["runs"][0]["results"]
    assert len(results) == 4
    assert all(
        r["suppressions"][0]["kind"] == "inSource" for r in results
    )
