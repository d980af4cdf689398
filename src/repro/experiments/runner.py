"""Simulation sweep runner: memoized, disk-cached, parallel.

Figures 2-7 are different views of one machine-size sweep, and figures
8-13 of one partitioning sweep; the shared :class:`SweepExecutor` memo
means each underlying simulation runs once per process regardless of
how many figures ask for it.  Configurations are frozen dataclasses and
therefore hashable, so the memo key is the configuration itself.

On top of the per-process memo, two opt-in layers:

* **Parallelism** — ``sweep``/``run_many`` fan missing grid points out
  longest first, one point per task, over the session-persistent
  worker pool (:mod:`~repro.experiments.worker_pool`: spawned once,
  reused by every batch).  The worker count comes from
  an explicit ``jobs`` argument, else ``$REPRO_JOBS``, else
  ``os.cpu_count()``.  ``jobs=1`` is the fully serial path.  Parallel
  results are assembled deterministically and are bit-identical to
  serial runs.
* **Persistence** — ``configure(cache_dir=...)`` attaches an on-disk
  :class:`~repro.experiments.result_cache.ResultCache` (the CLI and
  benchmarks point it at ``results/.cache``), so re-running a sweep
  after an interrupted or previous session only simulates missing
  points.

Every module-level function here serves the process-wide executor
(:func:`get_executor`).
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult
from repro.experiments.executor import (
    SweepExecutionError,
    SweepExecutor,
    resolve_jobs,
)
from repro.experiments.result_cache import ResultCache

__all__ = [
    "SweepExecutionError",
    "cache_stats",
    "clear_cache",
    "configure",
    "get_executor",
    "resolve_jobs",
    "run_config",
    "run_many",
    "sweep",
]

#: The process-wide default executor.  No disk cache by default: library
#: and test use stays hermetic; entry points opt in via configure().
_EXECUTOR = SweepExecutor()


def get_executor() -> SweepExecutor:
    """The process-wide default executor."""
    return _EXECUTOR


def configure(
    jobs: Optional[int] = None,
    cache_dir: Union[Path, str, None] = None,
) -> SweepExecutor:
    """Set the default executor's workers and disk cache.

    ``jobs=None`` keeps per-call resolution (``$REPRO_JOBS`` /
    cpu count); ``cache_dir=None`` detaches any disk cache.
    """
    resolve_jobs(jobs)  # validate now, including a bad $REPRO_JOBS
    _EXECUTOR.jobs = jobs
    if cache_dir is None:
        _EXECUTOR.cache = None
    else:
        _EXECUTOR.cache = ResultCache(Path(cache_dir))
    return _EXECUTOR


def run_config(config: SimulationConfig) -> SimulationResult:
    """Run (or fetch the cached result of) one configuration."""
    return _EXECUTOR.run_one(config)


def run_many(
    configs: Sequence[SimulationConfig],
    jobs: Optional[int] = None,
) -> List[SimulationResult]:
    """Run a batch of configurations, in parallel where possible."""
    return _EXECUTOR.run_many(configs, jobs=jobs)


def clear_cache() -> None:
    """Drop all memoized results (tests use this for isolation).

    Only the in-memory memo; any disk cache is left intact.
    """
    _EXECUTOR.clear_memo()
    _EXECUTOR.stats.reset()


def cache_stats() -> Dict[str, object]:
    """Counters for the default executor (and its disk cache, if any)."""
    return _EXECUTOR.cache_stats()


def sweep(
    algorithms: Sequence[str],
    think_times: Iterable[float],
    config_factory: Callable[[str, float], SimulationConfig],
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, float], SimulationResult]:
    """Run ``config_factory(algorithm, think_time)`` over the grid.

    Grid points are independent simulations, so missing ones run on a
    process pool (see :func:`run_many`); the returned mapping is
    ordered and keyed exactly as the serial implementation was.
    """
    grid: List[Tuple[str, float]] = [
        (algorithm, think_time)
        for algorithm in algorithms
        for think_time in think_times
    ]
    configs = [
        config_factory(algorithm, think_time)
        for algorithm, think_time in grid
    ]
    results = run_many(configs, jobs=jobs)
    return dict(zip(grid, results))
