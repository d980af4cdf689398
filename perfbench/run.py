"""The simulator's benchmark: end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one workload in a fresh interpreter
(:mod:`point`), repeating until ``--seconds`` have passed, and checks
every simulated point: a point fails if it raised, reported an
impossible result, or its digest differs from the expected one (the
committed digest for seeds in ``expected_digests.json``, otherwise the
first repetition's, so every repetition must agree).

``--trace 0`` reports the end-to-end metrics: host times are medians
over the repetitions, memory the highest peak among them.  Host times
are scaled to a reference CPU speed sampled while they run (see
:mod:`speed`), so they do not move with other tenants' load; the raw
wall time is printed beside them.  ``--trace 1`` alternates untraced
and profiled repetitions and reports the per-layer table (see
:mod:`layers`); the profiled results must match the untraced ones
digest for digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the same figures as a table, with sample counts and a
machine reference (interpreter spin rate, CPU count, Python version)
that is informational, not a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from layers import LAYERS, layer_of
from speed import loop_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected_digests.json"

#: Untraced repetitions a run makes at least, however short ``--seconds``.
MIN_REPETITIONS = 3

#: A repetition that takes longer than this has hung.
POINT_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "sim_commits_per_host_s": "commits/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.calls_per_event"] = "calls/event"
    units.update({
        "kernel.events": "count",
        "kernel.events_per_commit": "events/commit",
        "kernel.host_us_per_event": "us/event",
        "resources.node_cpu_util": "share",
        "resources.node_disk_util": "share",
        "resources.host_cpu_util": "share",
        "network.messages": "count",
        "network.messages_per_commit": "msgs/commit",
        "cc.blocking_count": "count",
        "cc.mean_blocking_sim_s": "sim_s",
        "cc.aborts": "count",
        "cc.useful_ratio": "share",
        "txn.commits": "count",
        "txn.response_p50_sim_s": "sim_s",
        "txn.response_p99_sim_s": "sim_s",
        "executor.pool_spawn_s": "s",
        "executor.worker_compute_s": "s",
        "executor.parallel_efficiency": "share",
        "executor.ipc_bytes": "bytes",
        "executor.chunks": "count",
        "trace.overhead": "ratio",
        "trace.unattributed_share": "share",
    })
    return units


def spin_rate(iterations: int = 1_000_000) -> float:
    """Probe-loop iterations per second (best of three)."""
    return iterations / min(loop_seconds(iterations) for _ in range(3))


def run_point(
    workload: str, seed: int, length: str, trace: bool,
    jobs: Optional[int] = None,
) -> dict:
    """One repetition in a fresh interpreter (see :mod:`point`)."""
    command = [
        sys.executable, str(HERE / "point.py"),
        workload, str(seed), length, "1" if trace else "0",
    ]
    if jobs is not None:
        command.append(str(jobs))
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=POINT_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"point.py {workload} exited {completed.returncode}:\n"
            + completed.stderr[-2000:]
        )
    return json.loads(completed.stdout.splitlines()[-1])


def expected_digests(length: str, seed: int, workload: str):
    """The committed digests for this point, or ``None``."""
    table = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return table.get(length, {}).get(str(seed), {}).get(workload)


def count_failures(reps: List[dict], reference: List[str]):
    """(attempted, failed) points over ``reps`` against ``reference``."""
    attempted = failed = 0
    for rep in reps:
        for index, expected in enumerate(reference):
            attempted += 1
            digests, errors = rep["digests"], rep["errors"]
            if (
                index >= len(digests)
                or errors[index] is not None
                or digests[index] != expected
            ):
                failed += 1
    return attempted, failed


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """Medians over the untraced repetitions; peak memory is the max."""
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "sim_commits_per_host_s": statistics.median(
            rep.get("summary", {}).get("commits", 0) / rep["run_s"]
            for rep in reps
        ),
        # Which worker a sweep's chunks land on varies, and with it
        # the pool's high-water mark; the highest is the peak.
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """The per-layer table from profiled and untraced repetitions."""
    run_s = statistics.median(rep["run_s"] for rep in untraced)
    overhead = statistics.median(
        rep["run_wall_s"] for rep in traced
    ) / statistics.median(rep["run_wall_s"] for rep in untraced)
    totals = {layer: [0.0, 0.0] for layer in LAYERS}
    unattributed = 0.0
    for rep in traced:
        for layer, (self_time, calls) in rep["fold"]["layers"].items():
            if layer in totals:
                totals[layer][0] += self_time
                totals[layer][1] += calls
            else:
                unattributed += self_time
    attributed = sum(self_time for self_time, _ in totals.values())
    first = traced[0]
    events = first["events"] or 0
    # A failed point leaves no summary; its figures read as zero.
    summary = defaultdict(float, first.get("summary", {}))
    commits = summary["commits"]
    metrics: Dict[str, float] = {}
    for layer, (self_time, calls) in totals.items():
        share = self_time / attributed if attributed else 0.0
        calls /= len(traced)
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_s"] = share * run_s
        metrics[f"{layer}.calls"] = round(calls)
        metrics[f"{layer}.calls_per_event"] = calls / events if events else 0.0
    executor = [rep["executor"] for rep in untraced if "executor" in rep]
    if executor:
        compute_s = statistics.median(
            e["worker_compute_s"] for e in executor
        )
        jobs = first["executor"]["jobs"]
        metrics.update({
            "executor.pool_spawn_s": statistics.median(
                rep["pool_spawn_s"] for rep in traced
            ),
            "executor.worker_compute_s": compute_s,
            "executor.parallel_efficiency": compute_s / (
                jobs * statistics.median(r["run_wall_s"] for r in untraced)
            ),
            "executor.ipc_bytes": first["executor"]["ipc_bytes"],
            "executor.chunks": first["executor"]["chunks"],
        })
        busy_s = compute_s
    else:
        metrics.update({
            "executor.pool_spawn_s": 0.0,
            "executor.worker_compute_s": 0.0,
            "executor.parallel_efficiency": 0.0,
            "executor.ipc_bytes": 0,
            "executor.chunks": 0,
        })
        busy_s = run_s
    aborts = summary["aborts"]
    metrics.update({
        "kernel.events": events,
        "kernel.events_per_commit": events / commits if commits else 0.0,
        "kernel.host_us_per_event": busy_s / events * 1e6 if events else 0.0,
        "resources.node_cpu_util": summary["node_cpu_util"],
        "resources.node_disk_util": summary["node_disk_util"],
        "resources.host_cpu_util": summary["host_cpu_util"],
        "network.messages": summary["messages"],
        "network.messages_per_commit": (
            summary["messages"] / commits if commits else 0.0
        ),
        "cc.blocking_count": summary["blocking_count"],
        "cc.mean_blocking_sim_s": summary["mean_blocking_sim_s"],
        "cc.aborts": aborts,
        "cc.useful_ratio": (
            commits / (commits + aborts) if commits + aborts else 0.0
        ),
        "txn.commits": commits,
        "txn.response_p50_sim_s": summary["response_p50_sim_s"],
        "txn.response_p99_sim_s": summary["response_p99_sim_s"],
        "trace.overhead": overhead,
        "trace.unattributed_share": (
            unattributed / (attributed + unattributed)
            if attributed + unattributed
            else 0.0
        ),
    })
    return metrics


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--length", choices=("bench", "smoke"), default="bench",
        help="simulated horizon; smoke is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; known: "
            + ", ".join(WORKLOADS),
            file=sys.stderr,
        )
        return 2
    trace = bool(args.trace)
    spin_start = spin_rate()
    started = time.perf_counter()
    untraced: List[dict] = []
    traced: List[dict] = []
    while True:
        untraced.append(run_point(args.workload, args.seed, args.length, False))
        if trace:
            traced.append(run_point(args.workload, args.seed, args.length, True))
        if time.perf_counter() - started >= args.seconds and (
            trace or len(untraced) >= MIN_REPETITIONS
        ):
            break
    spin_end = spin_rate()

    committed = expected_digests(args.length, args.seed, args.workload)
    reference = committed or untraced[0]["digests"]
    attempted, failed = count_failures(untraced + traced, reference)
    unmapped = sorted({
        module
        for rep in untraced + traced
        for module in rep["modules"]
        if layer_of(module) is None
    })
    print(
        f"workload={args.workload} seed={args.seed} length={args.length} "
        f"trace={args.trace} repetitions={len(untraced)} untraced"
        + (f" + {len(traced)} traced" if trace else "")
    )
    print(json.dumps({"machine": {
        "spin_rate_start": spin_start,
        "spin_rate_end": spin_end,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }}))
    print(
        f"outputs: {attempted} points checked against "
        + ("committed digests" if committed else "the first repetition")
        + f"; {failed} failed"
    )
    if unmapped:
        print(f"modules with no layer: {', '.join(unmapped)}")
    if trace:
        values = per_layer(untraced, traced)
        units = per_layer_units()
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    print(
        f"medians of {len(untraced)} untraced"
        + (f" and {len(traced)} traced" if trace else "")
        + " repetitions; untraced run wall time "
        + f"{statistics.median(r['run_wall_s'] for r in untraced):.4f} s "
        + "at a probe rate of "
        + f"{statistics.median(r['probe_rate'] for r in untraced):.4g}/s"
    )
    for name, value in values.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not unmapped,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
