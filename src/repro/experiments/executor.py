"""Parallel execution of independent simulation configurations.

Every point in a figure sweep is an independent simulation of one
frozen :class:`~repro.core.config.SimulationConfig`, which makes sweeps
embarrassingly parallel.  The executor fans the missing points out over
the session-persistent worker pool (:mod:`~repro.experiments.worker_pool`
— spawned once, reused by every batch, torn down atexit) and assembles
results in input order, so a parallel sweep is bit-identical to a
serial one (each simulation is a pure function of its config, seed
included).

Scheduling is longest-first, one point per task: the missing points
are sorted by processing nodes, most first (the sort is stable, so
input order breaks ties), at most ``jobs`` tasks are in flight at
once, and a worker that finishes a point is handed the next one in
completion order.  The costly points therefore start first and the
batch ends on cheap ones, instead of on a slow point behind an idle
worker.

Results travel back as **compressed cache-codec payloads**, not
pickled ``SimulationResult`` graphs: workers serialize each result
through :func:`~repro.experiments.result_cache.encode_result` and
zlib-compress the task's payloads into one blob (and, when a disk
cache is attached, write the entries into the shared cache directory
themselves), so the parent unpickles nothing deeper than ``bytes``
and the measured bytes-over-IPC shrink accordingly
(``ExecutorStats.ipc_bytes``; the parallel benchmark records them
next to what the pickled transport would have sent).

Result reuse is layered:

1. an in-memory memo (one entry per distinct config, per process) —
   the figures that share a sweep pay for it once;
2. an optional persistent :class:`~repro.experiments.result_cache.
   ResultCache` whose keys compose the schema version with a content
   hash of the sim-relevant sources, so only code changes that can
   affect results dirty entries.

``jobs=1`` preserves the fully serial in-process path (no pool, no
serialization); ``jobs=None`` resolves ``$REPRO_JOBS`` and falls back
to ``os.cpu_count()``.

In-process runs — the serial path and :meth:`SweepExecutor.run_one`,
plus experiments that time a run themselves — build their
``Simulation`` through :meth:`SweepExecutor.simulation`.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
import zlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult
from repro.core.simulation import Simulation
import repro.experiments.worker_pool as worker_pool
from repro.experiments.result_cache import (
    ResultCache,
    decode_result,
    encode_result,
)

__all__ = [
    "ExecutorStats",
    "SweepExecutionError",
    "SweepExecutor",
    "resolve_jobs",
]


class SweepExecutionError(RuntimeError):
    """A grid point failed; carries the failing config for diagnosis.

    Worker failures must surface loudly — a sweep that silently drops
    grid points would produce figures with holes that look like data.
    """

    def __init__(self, config: SimulationConfig, cause: BaseException):
        super().__init__(
            f"simulation failed for {config.label()}: {cause!r}"
        )
        self.config = config
        self.cause = cause


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit > ``$REPRO_JOBS`` > cpu_count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be a positive integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _longest_first(
    configs: Sequence[SimulationConfig],
) -> List[SimulationConfig]:
    """``configs`` with the most processing nodes first.

    A grid stamps one fidelity on all its points, so what sets a
    point's cost apart is mostly the machine it simulates: on Figure
    4's think-0 column an 8-node point costs about ten times a 1-node
    one.  The sort is stable: input order breaks ties.
    """
    return sorted(configs, key=lambda config: -config.num_proc_nodes)


def _simulate(config: SimulationConfig) -> SimulationResult:
    """Run one simulation; module-level so pool workers can pickle it."""
    return Simulation(config).run()


def _pack_payloads(payloads: List[str]) -> bytes:
    """Chunk transport format: zlib over the JSON list of payloads."""
    return zlib.compress(json.dumps(payloads).encode("utf-8"))


def _unpack_payloads(blob: bytes) -> List[str]:
    """Inverse of :func:`_pack_payloads`."""
    return json.loads(zlib.decompress(blob).decode("utf-8"))


def _run_chunk(
    index: int,
    configs: Sequence[SimulationConfig],
    cache_dir: Optional[str],
) -> Tuple[int, bytes, Dict[str, float]]:
    """Worker side: simulate one chunk, return packed payloads + stats.

    When the parent has a disk cache attached the worker writes each
    finished entry directly into the shared cache directory (atomic
    ``os.replace`` writes make concurrent writers safe), so progress
    persists even if the sweep is interrupted before assembly.
    """
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    payloads: List[str] = []
    started = time.perf_counter()
    for config in configs:
        result = _simulate(config)
        payloads.append(encode_result(result))
        if cache is not None:
            cache.put(config, result)
    stats = {
        "pid": float(os.getpid()),
        "compute_seconds": time.perf_counter() - started,
    }
    return index, _pack_payloads(payloads), stats


@dataclass
class ExecutorStats:
    """Where each requested grid point came from, over one lifetime."""

    simulated: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    #: Pool accounting (zero on the serial path).
    pool_batches: int = 0
    chunks_dispatched: int = 0
    chunks_cancelled: int = 0
    #: Result-transport bytes received from workers (codec strings).
    ipc_bytes: int = 0
    #: Wall time spent inside pool dispatch, and the portion of it the
    #: workers report as pure simulation; their difference bounds the
    #: coordination overhead on a single-CPU host.
    pool_wall_seconds: float = 0.0
    worker_compute_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "simulated": self.simulated,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "pool_batches": self.pool_batches,
            "chunks_dispatched": self.chunks_dispatched,
            "chunks_cancelled": self.chunks_cancelled,
            "ipc_bytes": self.ipc_bytes,
            "pool_wall_seconds": self.pool_wall_seconds,
            "worker_compute_seconds": self.worker_compute_seconds,
        }

    def reset(self) -> None:
        self.simulated = 0
        self.memo_hits = 0
        self.disk_hits = 0
        self.pool_batches = 0
        self.chunks_dispatched = 0
        self.chunks_cancelled = 0
        self.ipc_bytes = 0
        self.pool_wall_seconds = 0.0
        self.worker_compute_seconds = 0.0


class SweepExecutor:
    """Runs batches of configs with memoization and optional parallelism."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ):
        #: ``None`` defers to :func:`resolve_jobs` at each batch.
        self.jobs = jobs
        self.cache = cache
        self.stats = ExecutorStats()
        #: PIDs observed serving this executor's chunks; together with
        #: :func:`worker_pool.pool_generation` this proves pool reuse.
        self.worker_pids: Set[int] = set()
        self._memo: Dict[SimulationConfig, SimulationResult] = {}

    # ------------------------------------------------------------------
    # Lookup layers
    # ------------------------------------------------------------------

    def _lookup(
        self, config: SimulationConfig
    ) -> Optional[SimulationResult]:
        result = self._memo.get(config)
        if result is not None:
            self.stats.memo_hits += 1
            return result
        if self.cache is not None:
            result = self.cache.get(config)
            if result is not None:
                self.stats.disk_hits += 1
                self._memo[config] = result
                return result
        return None

    def _store(
        self, config: SimulationConfig, result: SimulationResult
    ) -> None:
        self._memo[config] = result
        self.stats.simulated += 1
        if self.cache is not None:
            self.cache.put(config, result)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def simulation(self, config: SimulationConfig) -> Simulation:
        """Build the in-process ``Simulation`` for ``config``."""
        return Simulation(config)

    def run_one(self, config: SimulationConfig) -> SimulationResult:
        """Run (or fetch the cached result of) one configuration.

        Always in-process: a single point gains nothing from a pool.
        """
        result = self._lookup(config)
        if result is None:
            result = self.simulation(config).run()
            self._store(config, result)
        return result

    def run_many(
        self,
        configs: Sequence[SimulationConfig],
        jobs: Optional[int] = None,
    ) -> List[SimulationResult]:
        """Run a batch of configs; results are in input order.

        Cached points are served from the memo/disk layers; the missing
        remainder is deduplicated and fanned out longest first, one
        point per task, over the persistent worker pool when more than
        one distinct point is missing and ``jobs > 1``.  The first
        worker failure cancels every task not yet running and raises
        :class:`SweepExecutionError` rather than yielding a partial
        grid.
        """
        jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        missing: List[SimulationConfig] = []
        missing_set: Set[SimulationConfig] = set()
        for config in configs:
            if (
                self._lookup(config) is None
                and config not in missing_set
            ):
                # Validate up front so bad configs fail in the caller,
                # with a normal traceback, not inside a worker.
                config.validate()
                missing_set.add(config)
                missing.append(config)
        if missing:
            if jobs > 1 and len(missing) > 1:
                self._run_pool(missing, jobs)
            else:
                for config in missing:
                    try:
                        result = self.simulation(config).run()
                    except Exception as cause:
                        raise SweepExecutionError(
                            config, cause
                        ) from cause
                    self._store(config, result)
        # Every config is now memoized; assemble in input order.  The
        # memo lookups below are repeats of _lookup hits already counted
        # above, so read the memo directly to keep stats meaningful.
        return [self._memo[config] for config in configs]

    def _run_pool(
        self, missing: List[SimulationConfig], jobs: int
    ) -> None:
        # One point per task, costliest first; each task is a
        # one-point chunk for the worker's _run_chunk, so a failed
        # task names its config.
        tasks = _longest_first(missing)
        cache_dir = (
            str(self.cache.directory) if self.cache is not None else None
        )
        pool = worker_pool.get_pool(jobs)
        self.stats.pool_batches += 1
        started = time.perf_counter()
        pending: Dict[concurrent.futures.Future, int] = {}
        next_task = 0
        failure: Optional[
            Tuple[SimulationConfig, BaseException]
        ] = None
        broken_pool = False
        while failure is None and (next_task < len(tasks) or pending):
            # Keep exactly ``jobs`` tasks in flight: a finishing worker
            # takes the next point, and a pool larger than ``jobs``
            # (grown by an earlier batch) is not over-driven.
            while next_task < len(tasks) and len(pending) < jobs:
                future = pool.submit(
                    _run_chunk, next_task, [tasks[next_task]], cache_dir
                )
                pending[future] = next_task
                next_task += 1
                self.stats.chunks_dispatched += 1
            done, _ = concurrent.futures.wait(
                pending,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in sorted(done, key=pending.__getitem__):
                config = tasks[pending.pop(future)]
                try:
                    _, blob, chunk_stats = future.result()
                except BrokenProcessPool as cause:
                    failure = (config, cause)
                    broken_pool = True
                    break
                except Exception as cause:
                    failure = (config, cause)
                    break
                self._absorb_chunk([config], blob, chunk_stats)
        if failure is not None:
            # Cancel what never started; running tasks are left to
            # finish (their results are simply discarded) because a
            # ProcessPoolExecutor cannot interrupt a live worker.
            for future in pending:
                if future.cancel():
                    self.stats.chunks_cancelled += 1
            self.stats.chunks_cancelled += len(tasks) - next_task
            self.stats.pool_wall_seconds += (
                time.perf_counter() - started
            )
            if broken_pool:
                worker_pool.discard_pool()
            config, cause = failure
            raise SweepExecutionError(config, cause) from cause
        self.stats.pool_wall_seconds += time.perf_counter() - started

    def _absorb_chunk(
        self,
        chunk: List[SimulationConfig],
        blob: bytes,
        chunk_stats: Dict[str, float],
    ) -> None:
        """Decode one finished chunk into the memo (and counters)."""
        self.stats.ipc_bytes += len(blob)
        for config, payload in zip(chunk, _unpack_payloads(blob)):
            result = decode_result(payload)
            self._memo[config] = result
            self.stats.simulated += 1
            # The worker already wrote the disk entry; storing again
            # from the parent would double the write traffic.
        self.worker_pids.add(int(chunk_stats["pid"]))
        self.stats.worker_compute_seconds += chunk_stats[
            "compute_seconds"
        ]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def clear_memo(self) -> None:
        """Drop in-memory results (tests use this for isolation)."""
        self._memo.clear()

    def cache_stats(self) -> Dict[str, object]:
        """Combined executor + disk-cache counters for reporting."""
        combined: Dict[str, object] = dict(self.stats.as_dict())
        if self.cache is not None:
            combined["disk"] = self.cache.stats.as_dict()
            combined["disk_dir"] = str(self.cache.directory)
            combined["disk_entries"] = self.cache.entry_count()
        return combined
