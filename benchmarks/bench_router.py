"""Router headline benchmark: the mixed blend at zero think time.

Runs the ``router`` experiment's contended operating point — the
mixed blend of :mod:`repro.experiments.router` at think time 0 —
once per algorithm (the five fixed CC algorithms plus the router) and
records throughput, abort ratio and the router's per-class routing
table.  This is the headline point of the extension: with every
terminal saturated, no fixed algorithm handles all three classes well
at once, so the router's per-class dispatch must put its throughput
strictly above each of them at the same seed.

Two gates ride on the record:

* always — the MVCC read-path invariant: routed read-only classes
  report **zero** lock waits and **zero** aborts;
* with ``REPRO_BENCH_ENFORCE=1`` (the CI ``router-smoke`` job) — the
  strict win: router throughput > every fixed algorithm's at the
  headline point.  The gate lives at think 0 deliberately; at
  think-limited light load all algorithms commit the same
  terminal-bounded count and strict dominance is unmeasurable.

Records are appended to ``BENCH_router.json`` at the repo root
(override with ``$REPRO_BENCH_OUT``).

Run standalone for the committed-quality reading::

    REPRO_FIDELITY=bench python benchmarks/bench_router.py

or through pytest (same JSON record)::

    pytest benchmarks/bench_router.py -q
"""

from __future__ import annotations

import json
import os
import time

# Imported first: it puts src/ on the path for standalone runs.
from trajectory import REPO_ROOT, append_record, out_path

from repro.experiments.fidelity import Fidelity
from repro.experiments.router import (
    ROUTER_ALGORITHMS,
    mixed_config,
)
from repro.experiments.runner import run_many

DEFAULT_OUT = REPO_ROOT / "BENCH_router.json"

#: The headline operating point: every terminal saturated.
HEADLINE_THINK = 0.0


def _read_only_keys(result):
    return [
        key
        for key in result.router_class_commits
        if key.startswith("ro-")
    ]


def run_benchmark(fidelity: Fidelity) -> dict:
    """Run the headline point per algorithm; return the JSON record."""
    configs = [
        mixed_config(fidelity, algorithm, HEADLINE_THINK)
        for algorithm in ROUTER_ALGORITHMS
    ]
    started = time.perf_counter()
    results = dict(zip(ROUTER_ALGORITHMS, run_many(configs)))
    elapsed = time.perf_counter() - started
    router = results["router"]
    ro_keys = _read_only_keys(router)
    record = {
        "benchmark": "router",
        "fidelity": fidelity.name,
        "think_time": HEADLINE_THINK,
        "seed": fidelity.seed,
        "throughput": {
            name: round(result.throughput, 3)
            for name, result in results.items()
        },
        "abort_ratio": {
            name: round(result.abort_ratio, 4)
            for name, result in results.items()
        },
        "router_class_commits": dict(router.router_class_commits),
        "router_class_algorithms": {
            key: dict(arms)
            for key, arms in router.router_class_algorithms.items()
        },
        "read_only_lock_waits": sum(
            router.router_class_lock_waits.get(key, 0)
            for key in ro_keys
        ),
        "read_only_aborts": sum(
            router.router_class_aborts.get(key, 0)
            for key in ro_keys
        ),
        "wall_seconds": round(elapsed, 3),
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }
    best_fixed = max(
        (
            (name, result.throughput)
            for name, result in results.items()
            if name != "router"
        ),
        key=lambda pair: pair[1],
    )
    record["best_fixed"] = best_fixed[0]
    record["win_over_best_fixed"] = (
        round(router.throughput / best_fixed[1], 3)
        if best_fixed[1] > 0
        else None
    )
    return record


def test_router_headline():
    """Record the headline point; gate the strict win under CI.

    The read-only invariant (zero lock waits, zero aborts) is always
    asserted — it is a correctness property of the MVCC read path,
    not a performance number.  The strict-win gate applies with
    ``REPRO_BENCH_ENFORCE=1``.
    """
    fidelity = Fidelity.from_env(default="bench")
    record = run_benchmark(fidelity)
    append_record(record, out_path(DEFAULT_OUT))
    print(json.dumps(record, indent=2))
    assert record["read_only_lock_waits"] == 0, record
    assert record["read_only_aborts"] == 0, record
    if os.environ.get("REPRO_BENCH_ENFORCE", "") == "1":
        router_tput = record["throughput"]["router"]
        for name, tput in record["throughput"].items():
            if name == "router":
                continue
            assert router_tput > tput, (
                "router must strictly beat every fixed algorithm "
                "at the headline point",
                name,
                record["throughput"],
            )


if __name__ == "__main__":  # pragma: no cover
    test_router_headline()
