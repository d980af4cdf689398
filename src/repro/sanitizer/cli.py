"""``python -m repro.sanitizer`` — run experiments under simsan.

Runs the named experiments (default: the fig2/fig10 smoke anchors) on
a :class:`~repro.sanitizer.executor.SanitizingExecutor`, swapped in as
the runner's process-wide executor for the command, then reports every
finding through the shared lint reporters.  That executor is serial
and has no disk cache, so every point is actually simulated under
instrumentation, and nothing it produces reaches the result cache.

Exit codes mirror simlint: 0 clean, 1 findings (live error-severity
violations or a stale baseline), 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.faults import faulted_smoke_config
from repro.experiments.fidelity import Fidelity
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import using_executor
from repro.lint.baseline import Baseline
from repro.sanitizer import report as report_mod
from repro.sanitizer.executor import SanitizingExecutor

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description=(
            "simsan: runtime determinism sanitizer — run experiments "
            "instrumented and report races, stream-discipline breaks, "
            "handle misuse, and leaks"
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        default=["fig2", "fig10"],
        help="experiment ids to sanitize (default: fig2 fig10)",
    )
    parser.add_argument(
        "--fidelity",
        choices=("smoke", "quick", "full"),
        default="smoke",
        help="run length preset (default: smoke)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "baseline of inventoried findings (default: the committed "
            "src/repro/sanitizer/baseline.json when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline, report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to inventory every current "
            "error-severity finding, then exit 0"
        ),
    )
    parser.add_argument(
        "--faulted-smoke",
        action="store_true",
        help=(
            "also sanitize one canonical crash/loss-faulted 2PL point "
            "(faulted_smoke_config, the point CI's fault-injection "
            "smoke runs), so fault-injection "
            "hook paths and the stranded-work audit run under "
            "instrumentation in the same report"
        ),
    )
    parser.add_argument(
        "--no-confirm",
        action="store_true",
        help=(
            "skip the differential confirmer (race candidates stay "
            "unclassified warnings; roughly halves sanitized cost)"
        ),
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include waived/baselined findings in text output",
    )
    return parser


def _resolve_baseline(options) -> Optional[Baseline]:
    if options.no_baseline or options.update_baseline:
        return Baseline.empty()
    if options.baseline:
        return Baseline.load(Path(options.baseline))
    return None  # build_report falls back to the committed baseline


def main(argv: Optional[List[str]] = None) -> int:
    """Run the sanitizer CLI; returns the process exit code."""
    options = _build_parser().parse_args(argv)
    try:
        baseline = _resolve_baseline(options)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    fidelity = {
        "smoke": Fidelity.smoke,
        "quick": Fidelity.quick,
        "full": Fidelity.full,
    }[options.fidelity]()

    ids = list(options.ids)
    if ids == ["all"]:
        ids = list(EXPERIMENTS)
    experiments = []
    for experiment_id in ids:
        try:
            experiments.append(get_experiment(experiment_id))
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2

    executor = SanitizingExecutor(confirm=not options.no_confirm)
    with using_executor(executor):
        for experiment in experiments:
            print(
                f"simsan: sanitizing {experiment.id} "
                f"(fidelity={fidelity.name})",
                file=sys.stderr,
            )
            experiment.run(fidelity)
        if options.faulted_smoke:
            print(
                "simsan: sanitizing faulted smoke point "
                "(2pl, mtbf=60, loss=0.005)",
                file=sys.stderr,
            )
            executor.run_one(faulted_smoke_config("2pl"))
    findings = executor.findings()
    runs = executor.runs

    if options.update_baseline:
        target = Path(
            options.baseline
            if options.baseline
            else report_mod.default_baseline_path()
        )
        inventory = report_mod.build_report(
            findings, runs=runs, baseline=Baseline.empty()
        )
        updated = Baseline.from_violations(
            inventory.failures,
            reason="inventoried by --update-baseline; justify or fix",
        )
        updated.write(target)
        print(
            f"baseline: inventoried "
            f"{sum(e.count for e in updated.entries)} finding(s) in "
            f"{target}"
        )
        return 0

    report = report_mod.build_report(findings, runs=runs, baseline=baseline)
    print(
        report_mod.render(
            report, options.format, show_suppressed=options.show_suppressed
        )
    )
    return 0 if report.ok else 1
