"""Sanitizer overhead benchmark on the fig. 2 saturation point.

simsan is opt-in, but its cost decides whether the CI simsan job and
routine ``python -m repro.sanitizer`` runs stay usable, so the slowdown
is part of the perf trajectory.  This benchmark runs the saturated fig. 2
point (2PL, think=0, 8 nodes — the densest same-timestamp activity in
the paper grid) two ways:

* **clean** — the production path (hooks compiled to no-ops);
* **sanitized** — what ``python -m repro.sanitizer`` runs: the same
  dispatch loop with every hook and the end-of-run audit.

It times ``PAIRS`` pairs of one clean and one sanitized run, each
about half a second, alternating which of the two runs first.  Each pair gives
a ratio, sanitized over clean, and the median ratio is the recorded
slowdown: drift of a shared host between pairs cancels within each
pair instead of landing in the ratio.  The cyclic collector runs
before each timed run, so garbage left by earlier runs is not
collected inside a later run's timed region.

Appends to ``BENCH_simsan.json`` at the repo root (override with
``$REPRO_BENCH_OUT``), every pair's ratio included.  With
``$REPRO_BENCH_ENFORCE`` set (the CI simsan job), the median slowdown
must stay under ``MAX_SLOWDOWN``.

Run standalone or through pytest::

    python benchmarks/bench_simsan.py
    pytest benchmarks/bench_simsan.py -q
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

# Imported first: it puts src/ on the path for standalone runs.
from trajectory import REPO_ROOT, append_record, out_path

from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import scaling_config
from repro.sanitizer.core import Sanitizer

DEFAULT_OUT = REPO_ROOT / "BENCH_simsan.json"

#: CI gate: a sanitized run may cost at most this many clean-run
#: equivalents on the saturated point.
MAX_SLOWDOWN = 5.0

#: Clean/sanitized pairs per benchmark run.
PAIRS = 5


def _bench_config(fidelity: Fidelity):
    """Fig. 2, 2PL, think=0, 8 nodes — the hot-path benchmark point.

    ``target_commits`` is zeroed so the horizon (and the event count)
    is fixed by the fidelity alone: both modes simulate exactly the
    same events and the wall-clock ratio is a pure overhead figure.
    """
    config = scaling_config(
        fidelity, algorithm="2pl", think_time=0.0, num_nodes=8
    )
    return config.with_(
        target_commits=0, max_duration=config.duration
    )


def _timed_run(fidelity: Fidelity, sanitize: bool):
    """One run: (wall seconds, result, number of findings)."""
    sanitizer = Sanitizer() if sanitize else None
    simulation = Simulation(_bench_config(fidelity), sanitizer=sanitizer)
    gc.collect()
    started = time.perf_counter()
    result = simulation.run()
    wall = time.perf_counter() - started
    findings = len(sanitizer.finalize()) if sanitizer is not None else 0
    return wall, result, findings


def _identical(first, second) -> bool:
    """Every reported number agrees, per-node breakdowns included."""
    return (
        first.as_dict() == second.as_dict()
        and first.per_node_cpu_utilization
        == second.per_node_cpu_utilization
        and first.per_node_disk_utilization
        == second.per_node_disk_utilization
    )


def run_benchmark(fidelity: Fidelity, pairs: int = PAIRS) -> dict:
    clean_walls, sanitized_walls, ratios = [], [], []
    findings = 0
    identical = True
    for pair in range(max(1, pairs)):
        # Even pairs run clean first, odd pairs sanitized first.
        if pair % 2:
            hooks = _timed_run(fidelity, True)
            clean = _timed_run(fidelity, False)
        else:
            clean = _timed_run(fidelity, False)
            hooks = _timed_run(fidelity, True)
        clean_wall, clean_result, _ = clean
        hooks_wall, hooks_result, pair_findings = hooks
        clean_walls.append(clean_wall)
        sanitized_walls.append(hooks_wall)
        ratios.append(hooks_wall / clean_wall)
        findings = pair_findings
        identical = identical and _identical(clean_result, hooks_result)
    return {
        "benchmark": "simsan_overhead",
        "fidelity": fidelity.name,
        "workload": "fig02 2pl think=0 nodes=8",
        "pairs": len(ratios),
        "clean_seconds": round(statistics.median(clean_walls), 4),
        "sanitized_seconds": round(statistics.median(sanitized_walls), 4),
        "hook_slowdown": round(statistics.median(ratios), 3),
        "pair_slowdowns": [round(ratio, 3) for ratio in ratios],
        "findings": findings,
        "results_bit_identical": identical,
        "max_slowdown_gate": MAX_SLOWDOWN,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }


def test_simsan_overhead():
    """Record sanitizer overhead; gate it under REPRO_BENCH_ENFORCE."""
    record = run_benchmark(Fidelity.smoke())
    append_record(record, out_path(DEFAULT_OUT))
    print(json.dumps(record, indent=2))
    # Sanitized execution must observe, never perturb.
    assert record["results_bit_identical"]
    if os.environ.get("REPRO_BENCH_ENFORCE"):
        assert record["hook_slowdown"] <= MAX_SLOWDOWN, (
            f"sanitized run is {record['hook_slowdown']}x clean in the "
            f"median pair (gate: {MAX_SLOWDOWN}x) — the CI simsan job and "
            "sanitized experiment runs are becoming unusable"
        )


if __name__ == "__main__":  # pragma: no cover
    test_simsan_overhead()
