"""Layer map and profile folding for the traced benchmark run.

The traced run profiles the simulator with :mod:`cProfile` and folds
every function's self time into the layer that owns the function's
module.  Functions outside ``repro`` (builtins such as ``heapq``,
``bisect`` and ``random``, and pure-Python standard library code) are
charged to the layer that called them; the one exception is ``heapq``
called from the kernel, which is the binary-heap scheduler and so is
charged to ``scheduler``.  Time that cannot be traced back to a
``repro`` caller (the profiler's own bookkeeping, or a ``repro``
module missing from :data:`MODULE_LAYERS`) is *unattributed* and is
reported as ``trace.unattributed_share`` rather than spread over the
layers.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

LAYERS = (
    "kernel",
    "scheduler",
    "resources",
    "network",
    "cc",
    "router",
    "txn",
    "workload",
    "streams",
    "metrics",
    "executor",
    "other",
)

#: Module path under ``src/repro`` -> owning layer.  A key ending in
#: ``/`` maps every module of that package; packages the simulator's
#: hot path shares with other layers (``core/``, ``sim/``,
#: ``experiments/``) are listed file by file, so a module added there
#: fails the benchmark's coverage test until it is given a layer.
MODULE_LAYERS: Dict[str, str] = {
    "sim/kernel.py": "kernel",
    "sim/calendar.py": "scheduler",
    "sim/resources.py": "resources",
    "core/resource_manager.py": "resources",
    "core/network.py": "network",
    "cc/": "cc",
    "router/": "router",
    "core/transaction_manager.py": "txn",
    "core/transaction.py": "txn",
    "core/workload.py": "workload",
    "core/database.py": "workload",
    "sim/streams.py": "streams",
    "core/metrics.py": "metrics",
    "sim/stats.py": "metrics",
    "experiments/executor.py": "executor",
    "experiments/worker_pool.py": "executor",
    "experiments/result_cache.py": "executor",
    "__init__.py": "other",
    "sim/__init__.py": "other",
    "core/__init__.py": "other",
    "core/audit.py": "other",
    "core/config.py": "other",
    "core/node.py": "other",
    "core/simulation.py": "other",
    "core/tracing.py": "other",
    "experiments/__init__.py": "other",
    "experiments/ablations.py": "other",
    "experiments/faults.py": "other",
    "experiments/fidelity.py": "other",
    "experiments/overheads.py": "other",
    "experiments/partitioning.py": "other",
    "experiments/registry.py": "other",
    "experiments/replication.py": "other",
    "experiments/router.py": "other",
    "experiments/runner.py": "other",
    "experiments/scaleout.py": "other",
    "experiments/scaling.py": "other",
    "experiments/sensitivity.py": "other",
    "analysis/": "other",
    "faults/": "other",
    "lint/": "other",
    "sanitizer/": "other",
}

#: Pseudo-layer for time no ``repro`` layer can be charged with.
UNATTRIBUTED = "unattributed"

#: Environment variable naming the directory sweep workers write their
#: folded profiles to (workers inherit it from the traced process).
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_Func = Tuple[str, int, str]


def layer_of(module: str) -> Optional[str]:
    """The layer owning ``module`` (a ``/`` path under ``src/repro``).

    ``None`` means the module is unmapped.
    """
    layer = MODULE_LAYERS.get(module)
    if layer is None and "/" in module:
        layer = MODULE_LAYERS.get(module.split("/", 1)[0] + "/")
    return layer


def repro_modules(modules: Dict[str, object]) -> List[str]:
    """Paths under ``src/repro`` of the loaded ``repro`` modules."""
    import repro

    root = Path(repro.__file__).parent
    paths = []
    for name, module in modules.items():
        filename = getattr(module, "__file__", None)
        if (name == "repro" or name.startswith("repro.")) and filename:
            paths.append(Path(filename).relative_to(root).as_posix())
    return sorted(paths)


def fold(stats: Dict[_Func, tuple]) -> Dict[str, object]:
    """Fold a cProfile stats table into per-layer self time and calls.

    ``stats`` is :attr:`pstats.Stats.stats`.  Returns ``{"layers":
    {layer: [self_seconds, calls]}}``, where ``layers`` also carries
    :data:`UNATTRIBUTED`.  A call of a function outside ``repro``
    counts as a call of the layer it is charged to.
    """
    import repro

    prefix = str(Path(repro.__file__).parent) + os.sep
    owners: Dict[_Func, Optional[str]] = {}

    def owner(func: _Func) -> Optional[str]:
        """The layer of a ``repro`` function; ``None`` for the rest."""
        if func not in owners:
            layer = None
            if func[0].startswith(prefix):
                module = func[0][len(prefix):].replace(os.sep, "/")
                layer = layer_of(module) or UNATTRIBUTED
            owners[func] = layer
        return owners[func]

    ancestry_memo: Dict[_Func, Dict[str, float]] = {}

    def charge(caller: _Func, callee: _Func, seen: FrozenSet[_Func]):
        """Where the time ``caller`` spent in ``callee`` belongs."""
        layer = owner(caller)
        if layer == "kernel" and "_heapq." in callee[2]:
            return {"scheduler": 1.0}
        if layer is not None:
            return {layer: 1.0}
        return ancestry(caller, seen)

    def ancestry(func: _Func, seen: FrozenSet[_Func]) -> Dict[str, float]:
        """Layer shares of a non-``repro`` function's callers,
        weighted by the cumulative time each caller spent in it.
        Recursive edges (callers already on the walk) are skipped."""
        if func in ancestry_memo:
            return ancestry_memo[func]
        seen = seen | {func}
        callers = {
            caller: entry
            for caller, entry in stats[func][4].items()
            if caller not in seen
        }
        if not callers:
            return {UNATTRIBUTED: 1.0}
        weights = {caller: entry[3] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in charge(caller, func, seen).items():
                shares[layer] = shares.get(layer, 0.0) + share * weight / total
        ancestry_memo[func] = shares
        return shares

    totals: Dict[str, List[float]] = {
        layer: [0.0, 0.0] for layer in LAYERS + (UNATTRIBUTED,)
    }
    for func, (_, calls, self_time, _, callers) in stats.items():
        layer = owner(func)
        if layer is not None:
            totals[layer][0] += self_time
            totals[layer][1] += calls
            continue
        if not callers:
            totals[UNATTRIBUTED][0] += self_time
            totals[UNATTRIBUTED][1] += calls
            continue
        # Split by each caller's share of this function's self time
        # (by call count where the timer saw nothing).
        caller_time = sum(entry[2] for entry in callers.values())
        caller_calls = sum(entry[1] for entry in callers.values())
        for caller, entry in callers.items():
            weight = (
                entry[2] / caller_time
                if caller_time > 0.0
                else entry[1] / caller_calls
            )
            for target, share in charge(caller, func, frozenset((func,))).items():
                totals[target][0] += self_time * weight * share
                totals[target][1] += entry[1] * share
    return {"layers": totals}


def profile_folded(profiler: cProfile.Profile) -> Dict[str, object]:
    """Fold a finished profiler's table (see :func:`fold`)."""
    return fold(pstats.Stats(profiler).stats)


def merge(folds: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum several folds (one per traced process) into one."""
    totals = {layer: [0.0, 0.0] for layer in LAYERS + (UNATTRIBUTED,)}
    for folded in folds:
        for layer, (self_time, calls) in folded["layers"].items():
            totals[layer][0] += self_time
            totals[layer][1] += calls
    return {"layers": totals}


# ----------------------------------------------------------------------
# Sweep workers
# ----------------------------------------------------------------------

_original_run_chunk = None


def install_worker_profiler(trace_dir: str) -> None:
    """Profile every sweep chunk the worker pool runs.

    Replaces the executor's chunk entry point with
    :func:`profiled_run_chunk` before the pool starts; each chunk writes
    its fold and dispatched-event count into ``trace_dir``.  Nothing
    under ``src/`` changes: the executor submits whatever its module
    global names.
    """
    from repro.experiments import executor

    global _original_run_chunk
    _original_run_chunk = executor._run_chunk
    os.environ[TRACE_DIR_ENV] = trace_dir
    executor._run_chunk = profiled_run_chunk


def profiled_run_chunk(index, configs, cache_dir):
    """Worker side: the executor's chunk runner under cProfile."""
    from repro.core.simulation import Simulation
    from repro.experiments import executor

    run_chunk = _original_run_chunk or executor._run_chunk
    simulate = executor._simulate
    events = 0

    def counting_simulate(config):
        nonlocal events
        simulation = Simulation(config)
        result = simulation.run()
        events += simulation.env.dispatch_count
        return result

    executor._simulate = counting_simulate
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return run_chunk(index, configs, cache_dir)
    finally:
        profiler.disable()
        executor._simulate = simulate
        folded = profile_folded(profiler)
        folded["events"] = events
        path = Path(os.environ[TRACE_DIR_ENV]) / f"chunk-{index}.json"
        path.write_text(json.dumps(folded), encoding="utf-8")


def read_worker_folds(trace_dir: str) -> Tuple[Dict[str, object], int]:
    """Merge the chunk folds in ``trace_dir``; also sum their events."""
    folds = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(trace_dir).glob("chunk-*.json"))
    ]
    return merge(folds), sum(folded["events"] for folded in folds)
