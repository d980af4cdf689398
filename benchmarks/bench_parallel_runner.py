"""Wall-clock benchmark of the parallel sweep executor.

Times one machine-size figure sweep (the Figure 4 grid: five
algorithms x the fidelity's think-time grid at 1 and 8 nodes) twice —
serial (``jobs=1``) and parallel (``jobs=N``, default all cores) —
with cold memos, a cold worker pool, and no disk cache, asserts the
results are bit-identical, and appends a JSON record to
``BENCH_parallel_runner.json`` at the repo root (override the path
with ``$REPRO_BENCH_OUT``) so the speedup is tracked over time.

Per-record instrumentation beyond the speedup:

* ``dispatch_overhead_seconds`` — parallel minus serial wall time,
  floored at zero: on a single-CPU host this is exactly the
  coordination cost (spawn + chunk dispatch + result transport) the
  executor adds on top of pure simulation.
* ``ipc_bytes`` — result bytes actually shipped worker-to-parent
  (cache-codec strings), next to ``ipc_bytes_pickle``, what the old
  pickled-``SimulationResult`` transport would have sent.

With ``REPRO_BENCH_ENFORCE=1`` (the CI parallel-smoke job) the run
fails if the jobs=2 speedup drops below 0.95x — the persistent-pool
floor even on a single-core runner; multi-core machines additionally
enforce >= 2x.

Run standalone for a quick reading::

    REPRO_FIDELITY=smoke python benchmarks/bench_parallel_runner.py

or through pytest with the rest of the suite (same JSON record)::

    pytest benchmarks/bench_parallel_runner.py -q
"""

from __future__ import annotations

import json
import os
import pickle
import time

# Imported first: it puts src/ on the path for standalone runs.
from trajectory import REPO_ROOT, append_record, out_path

import repro.experiments.worker_pool as worker_pool
from repro.experiments.executor import SweepExecutor, resolve_jobs
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import ALGORITHMS, scaling_config

DEFAULT_OUT = REPO_ROOT / "BENCH_parallel_runner.json"

#: The jobs=2 speedup floor enforced under REPRO_BENCH_ENFORCE=1.
#: A persistent pool with chunked dispatch and codec transport should
#: cost (nearly) nothing even on one CPU; below this the dispatch tax
#: has crept back.
MIN_SPEEDUP_JOBS2 = 0.95


def _sweep_configs(fidelity: Fidelity):
    return [
        scaling_config(fidelity, algorithm, think_time, num_nodes)
        for num_nodes in (1, 8)
        for algorithm in ALGORITHMS
        for think_time in fidelity.think_times
    ]


def _timed_run(configs, jobs: int):
    executor = SweepExecutor(jobs=jobs)
    started = time.perf_counter()
    results = executor.run_many(configs)
    elapsed = time.perf_counter() - started
    assert executor.stats.simulated == len(configs)
    return results, elapsed, executor.stats


def run_benchmark(fidelity: Fidelity, jobs: int) -> dict:
    """Time the sweep serial vs parallel; return the JSON record."""
    configs = _sweep_configs(fidelity)
    serial_results, serial_seconds, _ = _timed_run(configs, jobs=1)
    # Charge the parallel run for pool spawn too: the pool is
    # per-session, and this timed batch is the session's first.
    worker_pool.shutdown_pool()
    parallel_results, parallel_seconds, stats = _timed_run(
        configs, jobs=jobs
    )
    assert [r.as_dict() for r in parallel_results] == [
        r.as_dict() for r in serial_results
    ], "parallel sweep diverged from serial sweep"
    return {
        "benchmark": "parallel_runner",
        "fidelity": fidelity.name,
        "grid_points": len(configs),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(
            serial_seconds / parallel_seconds, 3
        ) if parallel_seconds > 0 else None,
        "dispatch_overhead_seconds": round(
            max(parallel_seconds - serial_seconds, 0.0), 3
        ),
        "chunks": stats.chunks_dispatched,
        "ipc_bytes": stats.ipc_bytes,
        "ipc_bytes_pickle": len(
            pickle.dumps(serial_results, pickle.HIGHEST_PROTOCOL)
        ),
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }


def test_parallel_runner_speedup():
    """Parallel sweep matches serial bit-for-bit; record the timing.

    Equality is always enforced.  The speedup gates apply when
    ``REPRO_BENCH_ENFORCE=1`` (CI) or on clearly multi-core hosts:
    >= 0.95x at jobs=2 everywhere (persistent-pool floor), >= 2x on
    machines with at least 4 cores.
    """
    fidelity = Fidelity.from_env(default="smoke")
    jobs = resolve_jobs()
    record = run_benchmark(fidelity, jobs=max(jobs, 2))
    append_record(record, out_path(DEFAULT_OUT))
    print(json.dumps(record, indent=2))
    enforce = os.environ.get("REPRO_BENCH_ENFORCE", "") == "1"
    if enforce and record["jobs"] == 2:
        assert record["speedup"] >= MIN_SPEEDUP_JOBS2, record
    if (os.cpu_count() or 1) >= 4:
        assert record["speedup"] >= 2.0, record


if __name__ == "__main__":  # pragma: no cover
    test_parallel_runner_speedup()
