"""``python -m repro.sanitizer`` — run experiments under simsan.

Runs the named experiments (default: the fig2/fig10 smoke anchors) on
a :class:`~repro.sanitizer.executor.SanitizingExecutor`, swapped in as
the runner's process-wide executor for the command, then reports every
finding through the shared lint reporters.  That executor is serial
and has no disk cache, so every point is actually simulated with a
sanitizer attached, and nothing it produces reaches the result cache.

Exit codes mirror simlint: 0 clean, 1 findings (error-severity
violations), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.faults import faulted_smoke_config
from repro.experiments.fidelity import Fidelity
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import using_executor
from repro.sanitizer import report as report_mod
from repro.sanitizer.executor import SanitizingExecutor

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description=(
            "simsan: runtime determinism sanitizer — run experiments "
            "instrumented and report stream-discipline breaks and leaks"
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the sanitizer CLI; returns the process exit code."""
    options = _build_parser().parse_args(argv)
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

    executor = SanitizingExecutor()
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
    report = report_mod.build_report(executor.findings(), runs=executor.runs)
    print(report_mod.render(report, options.format))
    return 0 if report.ok else 1
