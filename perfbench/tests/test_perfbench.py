"""The benchmark's own tests: smoke-length passes through run.py.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units()
    )


def test_layer_map_gives_each_module_one_layer():
    packages = [key for key in layers.MODULE_LAYERS if key.endswith("/")]
    for key, layer in layers.MODULE_LAYERS.items():
        assert layer in layers.LAYERS, key
        if not key.endswith("/"):
            assert not any(key.startswith(p) for p in packages), key
    assert set(layers.MODULE_LAYERS.values()) == set(layers.LAYERS)
    assert layers.layer_of("sim/kernel.py") == "kernel"
    assert layers.layer_of("cc/locks.py") == "cc"
    assert layers.layer_of("sim/new_module.py") is None


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_pass(workload):
    """Traced and untraced repetitions match the committed digests,
    every loaded module has a layer, and the shares add up."""
    completed = _bench(
        "--workload", workload, "--seed", "42", "--seconds", "0",
        "--trace", "1", "--length", "smoke",
    )
    result = _result(completed)
    assert "committed digests" in completed.stdout
    assert "modules with no layer" not in completed.stdout
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    shares = sum(metrics[f"{layer}.self_share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0)
    assert 0.0 <= metrics["trace.unattributed_share"] < 0.01
    assert metrics["kernel.events"] > 0 and metrics["txn.commits"] > 0
    if WORKLOADS[workload].sweep:
        assert metrics["executor.calls"] > 0
        assert metrics["executor.chunks"] > 0
    else:
        assert metrics["executor.calls"] == 0


def test_untraced_pass_reports_end_to_end_metrics():
    result = _result(_bench(
        "--workload", "paper-saturated", "--seed", "42", "--seconds", "0",
        "--trace", "0", "--length", "smoke",
    ))
    assert result["correct"]
    assert result["attempted"] == run.MIN_REPETITIONS
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _copy_benchmark(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_perturbed_digest_counts_as_failed(tmp_path):
    root = _copy_benchmark(tmp_path, with_sources=True)
    path = root / "perfbench" / "expected_digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    table["smoke"]["42"]["paper-saturated"] = ["0" * 16]
    path.write_text(json.dumps(table), encoding="utf-8")
    result = _result(_bench(
        "--workload", "paper-saturated", "--seed", "42", "--seconds", "0",
        "--trace", "0", "--length", "smoke", root=root,
    ))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_REPETITIONS


def test_fails_without_simulator_sources(tmp_path):
    root = _copy_benchmark(tmp_path, with_sources=False)
    completed = _bench(
        "--workload", "paper-saturated", "--seed", "42", "--seconds", "1",
        "--trace", "0", root=root,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_fig_sweep_matches_between_serial_and_pool():
    serial = run.run_point("fig-sweep", 42, "smoke", False, jobs=1)
    pooled = run.run_point("fig-sweep", 42, "smoke", False, jobs=2)
    assert serial["digests"] == pooled["digests"]
    assert None not in serial["digests"]
    assert serial["executor"]["chunks"] == 0 < pooled["executor"]["chunks"]
