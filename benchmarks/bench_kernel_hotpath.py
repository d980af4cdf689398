"""Kernel hot-path throughput benchmark (events dispatched per second).

Runs the canonical Figure 2 closed-system workload — 2PL at
think time 0 on the 8-node declustered machine, the saturated point
where the event loop dominates wall time — and reports the kernel's
dispatch rate from :attr:`Environment.dispatch_count`.  The record is
appended to ``BENCH_kernel_events.json`` at the repo root (override
with ``$REPRO_BENCH_OUT``) so the events/sec trajectory is tracked
over time.

Because events/sec is machine-dependent, the record also includes a
*spin rate* — the speed of a trivial pure-Python loop on the same
interpreter — and the dimensionless ratio ``events_per_spin =
events_per_sec / spin_rate``.  The committed baseline
(``benchmarks/baselines/kernel_events.json``) stores that normalized
ratio; the regression check compares against it with a 30% tolerance,
so a slower CI runner does not trip it but a kernel regression does.
The check is enforced when ``$REPRO_BENCH_ENFORCE`` is set (the CI
perf-smoke job sets it); local runs just record.

Run standalone for a quick reading::

    REPRO_FIDELITY=smoke python benchmarks/bench_kernel_hotpath.py

or through pytest (same JSON record)::

    pytest benchmarks/bench_kernel_hotpath.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

# Imported first: it puts src/ on the path for standalone runs.
from trajectory import REPO_ROOT, append_record, out_path, spin_rate

from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import scaling_config

DEFAULT_OUT = REPO_ROOT / "BENCH_kernel_events.json"
BASELINE_PATH = (
    Path(__file__).resolve().parent / "baselines" / "kernel_events.json"
)

#: Allowed normalized-throughput drop before the check fails.
REGRESSION_TOLERANCE = 0.30


def _bench_config(fidelity: Fidelity):
    """The canonical hot-path workload: fig. 2, 2PL, think=0, 8 nodes.

    ``target_commits`` is zeroed so the horizon — and therefore the
    event count — is fixed by the fidelity alone, making the wall-clock
    comparison a pure dispatch-rate measurement.
    """
    config = scaling_config(
        fidelity, algorithm="2pl", think_time=0.0, num_nodes=8
    )
    return config.with_(
        target_commits=0, max_duration=config.duration
    )


def run_benchmark(fidelity: Fidelity, repeats: int = 3) -> dict:
    """Run the workload ``repeats`` times; report the best dispatch rate."""
    best_wall = float("inf")
    dispatched = 0
    commits = 0
    for _ in range(max(1, repeats)):
        simulation = Simulation(_bench_config(fidelity))
        started = time.perf_counter()
        result = simulation.run()
        wall = time.perf_counter() - started
        if wall < best_wall:
            best_wall = wall
        dispatched = simulation.env.dispatch_count
        commits = result.commits
    events_per_sec = dispatched / best_wall if best_wall > 0 else 0.0
    rate = spin_rate()
    return {
        "benchmark": "kernel_hotpath",
        "fidelity": fidelity.name,
        "workload": "fig02 2pl think=0 nodes=8",
        "repeats": max(1, repeats),
        "events_dispatched": dispatched,
        "commits": commits,
        "best_wall_seconds": round(best_wall, 4),
        "events_per_sec": round(events_per_sec, 1),
        "spin_rate": round(rate, 1),
        "events_per_spin": round(events_per_sec / rate, 6),
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }


def load_baseline(fidelity_name: str) -> float | None:
    """The committed normalized baseline for this fidelity, if any."""
    try:
        baselines = json.loads(
            BASELINE_PATH.read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None
    value = baselines.get(fidelity_name)
    return float(value) if isinstance(value, (int, float)) else None


def check_regression(record: dict) -> tuple[bool, str]:
    """Compare the normalized rate against the committed baseline."""
    baseline = load_baseline(record["fidelity"])
    if baseline is None:
        return True, (
            f"no committed baseline for fidelity "
            f"'{record['fidelity']}'; recorded "
            f"events_per_spin={record['events_per_spin']}"
        )
    floor = baseline * (1.0 - REGRESSION_TOLERANCE)
    measured = record["events_per_spin"]
    message = (
        f"events_per_spin={measured:.6f} vs baseline {baseline:.6f} "
        f"(floor {floor:.6f}, tolerance {REGRESSION_TOLERANCE:.0%})"
    )
    return measured >= floor, message


def test_kernel_hotpath_events_per_sec():
    """Record the dispatch rate; enforce the baseline when asked.

    The regression gate only fires with ``$REPRO_BENCH_ENFORCE`` set
    (the CI perf-smoke job sets it); interactive runs record the
    trajectory without failing on machine noise.
    """
    fidelity = Fidelity.from_env(default="smoke")
    record = run_benchmark(fidelity)
    ok, message = check_regression(record)
    record["baseline_check"] = message
    append_record(record, out_path(DEFAULT_OUT))
    print(json.dumps(record, indent=2))
    if os.environ.get("REPRO_BENCH_ENFORCE"):
        assert ok, f"kernel dispatch rate regressed: {message}"


if __name__ == "__main__":  # pragma: no cover
    test_kernel_hotpath_events_per_sec()
