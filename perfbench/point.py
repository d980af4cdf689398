"""One benchmark repetition, in a fresh interpreter; prints JSON.

Usage::

    python3 perfbench/point.py WORKLOAD SEED LENGTH TRACE [JOBS]

Set-up time runs from the top of this file, before ``repro`` is
imported, to the moment the ``Simulation`` (or, for a sweep, the
executor) is constructed.  Run time covers ``Simulation.run()`` or the
sweep's ``run_many`` call alone.  Both are reported at the reference CPU
speed (see :mod:`speed`), with the raw wall run time beside them.  With
``TRACE=1`` the run is profiled instead (see :mod:`layers`); the
simulated results must not change.
"""

import time

import speed

_PROBE = speed.SpeedProbe()
_STARTED = time.perf_counter()
_PROBE.start()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def digest(result) -> str:
    """Hash of a ``SimulationResult``'s reported fields."""
    text = json.dumps(result.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check(result):
    """A reason the result is impossible, or ``None``."""
    for name in (
        "avg_node_cpu_utilization",
        "avg_disk_utilization",
        "host_cpu_utilization",
    ):
        value = getattr(result, name)
        if not 0.0 <= value <= 1.0 + 1e-9:
            return f"{name}={value} outside [0, 1]"
    if result.commits < 0 or result.aborts < 0:
        return "negative commit or abort count"
    if result.commits and abs(
        result.abort_ratio - result.aborts / result.commits
    ) > 1e-9:
        return "abort_ratio disagrees with aborts / commits"
    return None


def summarize(results) -> dict:
    """Simulated-model figures; counts summed, the rest averaged."""
    count = len(results)
    blocked = sum(result.blocking_count for result in results)
    return {
        "commits": sum(result.commits for result in results),
        "aborts": sum(result.aborts for result in results),
        "messages": sum(result.messages_sent for result in results),
        "blocking_count": blocked,
        "mean_blocking_sim_s": (
            sum(r.mean_blocking_time * r.blocking_count for r in results)
            / blocked
            if blocked
            else 0.0
        ),
        "node_cpu_util": sum(
            r.avg_node_cpu_utilization for r in results
        ) / count,
        "node_disk_util": sum(r.avg_disk_utilization for r in results)
        / count,
        "host_cpu_util": sum(r.host_cpu_utilization for r in results)
        / count,
        "response_p50_sim_s": sum(r.response_time_p50 for r in results)
        / count,
        "response_p99_sim_s": sum(r.response_time_p99 for r in results)
        / count,
    }


def _peak_rss_mb(worker_pids=()) -> float:
    """This process's peak RSS plus each live worker's (VmHWM)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def _timings(setup_end: float, started: float, ended: float) -> dict:
    """This repetition's host times (see :mod:`speed`)."""
    _PROBE.stop()
    return {
        "setup_s": _PROBE.reference_seconds(_STARTED, setup_end),
        "run_s": _PROBE.reference_seconds(started, ended),
        "run_wall_s": ended - started,
        "probe_rate": _PROBE.mean_rate(started, ended),
    }


def _run_single(config, trace: bool) -> dict:
    from repro.core.simulation import Simulation

    simulation = Simulation(config)
    setup_end = time.perf_counter()
    profiler = None
    if trace:
        import cProfile

        # The probe's signal handler would be charged to whichever
        # layer it interrupted.
        _PROBE.stop()
        profiler = cProfile.Profile()
        profiler.enable()
    started = time.perf_counter()
    try:
        results, error = [simulation.run()], None
    except Exception as cause:  # one failed operation, reported
        results, error = [None], repr(cause)
    ended = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    out = _timings(setup_end, started, ended)
    out.update(
        results=results,
        errors=[error],
        events=simulation.env.dispatch_count,
        peak_rss_mb=_peak_rss_mb(),
    )
    if profiler is not None:
        import layers

        out["fold"] = layers.profile_folded(profiler)
    return out


def _run_sweep(configs, jobs: int, trace_dir) -> dict:
    """The sweep; profiled when given a directory for worker folds."""
    from repro.experiments import worker_pool
    from repro.experiments.executor import (
        SweepExecutionError,
        SweepExecutor,
    )

    executor = SweepExecutor(jobs=jobs)
    setup_end = time.perf_counter()
    out = {}
    profiler = None
    if trace_dir is not None:
        import cProfile

        import layers

        _PROBE.stop()
        # Pool start-up on its own, then a cold pool again for the run.
        started = time.perf_counter()
        pool = worker_pool.get_pool(jobs)
        for future in [pool.submit(os.getpid) for _ in range(jobs)]:
            future.result()
        out["pool_spawn_s"] = time.perf_counter() - started
        worker_pool.shutdown_pool()
        layers.install_worker_profiler(trace_dir)
        # The coordinator mostly blocks on its workers; CPU time keeps
        # that waiting out of the executor's self time.
        profiler = cProfile.Profile(time.process_time)
        profiler.enable()
    started = time.perf_counter()
    try:
        results = executor.run_many(configs)
        errors = [None] * len(configs)
    except SweepExecutionError as cause:
        results = [None] * len(configs)
        errors = [repr(cause)] * len(configs)
    ended = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    out.update(_timings(setup_end, started, ended))
    out["peak_rss_mb"] = _peak_rss_mb(sorted(executor.worker_pids))
    worker_pool.shutdown_pool()
    stats = executor.stats
    out.update(
        results=results,
        errors=errors,
        events=None,
        executor={
            "jobs": jobs,
            "worker_compute_s": stats.worker_compute_seconds,
            "ipc_bytes": stats.ipc_bytes,
            "chunks": stats.chunks_dispatched,
        },
    )
    if profiler is not None:
        folded, events = layers.read_worker_folds(trace_dir)
        out["fold"] = layers.merge([layers.profile_folded(profiler), folded])
        out["events"] = events
    return out


def main(argv) -> int:
    name, seed, length, trace = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    from workloads import SWEEP_JOBS, WORKLOADS

    workload = WORKLOADS[name]
    configs = workload.configs(seed, length)
    jobs = int(argv[4]) if len(argv) > 4 else SWEEP_JOBS
    if not workload.sweep:
        out = _run_single(configs[0], trace == "1")
    elif trace == "1":
        with tempfile.TemporaryDirectory(
            prefix=".perfbench-", dir=ROOT
        ) as trace_dir:
            out = _run_sweep(configs, jobs, trace_dir)
    else:
        out = _run_sweep(configs, jobs, None)
    results = out.pop("results")
    errors = out["errors"]
    for index, result in enumerate(results):
        if result is not None and errors[index] is None:
            errors[index] = check(result)
    out["digests"] = [
        None if result is None else digest(result) for result in results
    ]
    if None not in results:
        out["summary"] = summarize(results)
    import layers

    out["modules"] = layers.repro_modules(sys.modules)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
