"""What the benchmark scripts share: the trajectory writer.

Every ``bench_*.py`` script appends one JSON record per run to a
``BENCH_*.json`` trajectory at the repo root (``$REPRO_BENCH_OUT``
overrides the file), and the event-rate scripts normalize their rates
by the interpreter's spin rate so records from different hosts
compare.  A script imports this module before anything from ``repro``:
importing it makes ``src/`` importable, so both ways of running a
script work::

    python benchmarks/bench_x.py
    pytest benchmarks/bench_x.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# Standalone-script convenience: make src/ importable without
# PYTHONPATH (pytest runs get it from the usual test environment).
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))


def out_path(default: Path) -> Path:
    """Where a record goes: ``$REPRO_BENCH_OUT``, else ``default``."""
    override = os.environ.get("REPRO_BENCH_OUT")
    return Path(override) if override else default


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


def spin_rate(iterations: int = 2_000_000) -> float:
    """Pure-Python iterations/second on this interpreter (best of 3)."""
    best = float("inf")
    for _ in range(3):
        counter = 0
        started = time.perf_counter()
        for value in range(iterations):
            counter += value
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return iterations / best
