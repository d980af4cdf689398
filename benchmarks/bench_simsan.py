"""Sanitizer overhead benchmark on the fig. 2 saturation point.

simsan is opt-in, but its cost decides whether the CI simsan job and
routine ``python -m repro.sanitizer`` runs stay usable, so the slowdown
is part of the perf trajectory.  This benchmark runs the saturated fig. 2
point (2PL, think=0, 8 nodes — the densest same-timestamp activity in
the paper grid) three ways:

* **clean** — the production path (hooks compiled to no-ops);
* **sanitized** — full instrumentation, confirmer off (pure hook +
  bookkeeping overhead);
* **sanitized+confirm** — the default ``python -m repro.sanitizer``
  mode, which adds one perturbed clean-speed re-run for race
  classification.

Appends to ``BENCH_simsan.json`` at the repo root (override with
``$REPRO_BENCH_OUT``).  With ``$REPRO_BENCH_ENFORCE`` set (the CI
simsan job), the default-mode slowdown must stay under
``MAX_SLOWDOWN``.

Run standalone or through pytest::

    python benchmarks/bench_simsan.py
    pytest benchmarks/bench_simsan.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

# Standalone-script convenience: make src/ importable without
# PYTHONPATH (pytest runs get it from the usual test environment).
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(
        0, str(Path(__file__).resolve().parents[1] / "src")
    )

from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import scaling_config
from repro.sanitizer.core import Sanitizer, diff_results

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_simsan.json"

#: CI gate: the default sanitizer mode (hooks + confirmer) may cost
#: at most this many clean-run equivalents on the saturated point.
MAX_SLOWDOWN = 5.0


def _bench_config(fidelity: Fidelity):
    """Fig. 2, 2PL, think=0, 8 nodes — the hot-path benchmark point.

    ``target_commits`` is zeroed so the horizon (and the event count)
    is fixed by the fidelity alone: every mode simulates exactly the
    same events and the wall-clock ratio is a pure overhead figure.
    """
    config = scaling_config(
        fidelity, algorithm="2pl", think_time=0.0, num_nodes=8
    )
    return config.with_(
        target_commits=0, max_duration=config.duration
    )


def _best_wall(fidelity: Fidelity, repeats: int, **sim_kwargs):
    best = float("inf")
    result = None
    findings = 0
    for _ in range(max(1, repeats)):
        kwargs = dict(sim_kwargs)
        if "sanitize" in kwargs:
            confirm = kwargs.pop("sanitize")
            kwargs["sanitizer"] = Sanitizer(confirm=confirm)
        simulation = Simulation(_bench_config(fidelity), **kwargs)
        started = time.perf_counter()
        result = simulation.run()
        wall = time.perf_counter() - started
        if wall < best:
            best = wall
        if simulation.sanitizer is not None:
            findings = len(simulation.sanitizer.finalize())
    return best, result, findings


def run_benchmark(fidelity: Fidelity, repeats: int = 3) -> dict:
    clean_wall, clean_result, _ = _best_wall(fidelity, repeats)
    hooks_wall, hooks_result, hook_findings = _best_wall(
        fidelity, repeats, sanitize=False
    )
    confirm_wall, _, confirm_findings = _best_wall(
        fidelity, 1, sanitize=True
    )
    return {
        "benchmark": "simsan_overhead",
        "fidelity": fidelity.name,
        "workload": "fig02 2pl think=0 nodes=8",
        "repeats": max(1, repeats),
        "clean_seconds": round(clean_wall, 4),
        "sanitized_seconds": round(hooks_wall, 4),
        "sanitized_confirm_seconds": round(confirm_wall, 4),
        "hook_slowdown": round(
            hooks_wall / clean_wall if clean_wall > 0 else 0.0, 3
        ),
        "confirm_slowdown": round(
            confirm_wall / clean_wall if clean_wall > 0 else 0.0, 3
        ),
        "findings": confirm_findings or hook_findings,
        "results_bit_identical": diff_results(
            clean_result, hooks_result
        )
        == "",
        "max_slowdown_gate": MAX_SLOWDOWN,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }


def _out_path() -> Path:
    override = os.environ.get("REPRO_BENCH_OUT")
    return Path(override) if override else DEFAULT_OUT


def append_record(record: dict, path: Path) -> None:
    """Append to the JSON trajectory (a list of records)."""
    records = []
    if path.is_file():
        try:
            records = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(records, list):
                records = [records]
        except (OSError, ValueError):
            records = []
    records.append(record)
    path.write_text(
        json.dumps(records, indent=2) + "\n", encoding="utf-8"
    )


def test_simsan_overhead():
    """Record sanitizer overhead; gate it under REPRO_BENCH_ENFORCE."""
    record = run_benchmark(Fidelity.smoke())
    append_record(record, _out_path())
    print(json.dumps(record, indent=2))
    # Instrumented execution must observe, never perturb.
    assert record["results_bit_identical"]
    if os.environ.get("REPRO_BENCH_ENFORCE"):
        assert record["confirm_slowdown"] <= MAX_SLOWDOWN, (
            f"sanitized run is {record['confirm_slowdown']}x clean "
            f"(gate: {MAX_SLOWDOWN}x) — the CI simsan job and "
            "sanitized experiment runs are becoming unusable"
        )


if __name__ == "__main__":  # pragma: no cover
    test_simsan_overhead()
