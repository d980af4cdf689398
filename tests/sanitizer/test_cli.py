"""``python -m repro.sanitizer`` — exit codes, the baseline update
loop, and that sanitizing ends with the command, driven through a
registered tiny experiment so a CLI test costs one small simulation
instead of a figure sweep."""

import json

import pytest

from repro.core.config import paper_default_config
from repro.experiments import registry
from repro.experiments.registry import Experiment
from repro.experiments.runner import get_executor, run_config
from repro.sanitizer.cli import main
from repro.sanitizer.executor import SanitizingExecutor


def _tiny_config():
    return paper_default_config(
        "2pl", think_time=1.0, seed=11
    ).with_(duration=4.0, warmup=1.0).with_workload(num_terminals=6)


def _tiny_experiment(fidelity):
    run_config(_tiny_config())
    return []


@pytest.fixture
def tiny_registered(monkeypatch):
    monkeypatch.setitem(
        registry.EXPERIMENTS,
        "tiny",
        Experiment("tiny", "one small contended run", _tiny_experiment),
    )


class TestExitCodes:
    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["no-such-figure"]) == 2

    def test_bad_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("not json")
        assert main(["tiny", "--baseline", str(bad)]) == 2

    def test_findings_without_baseline_fail(self, tiny_registered, capsys):
        code = main(["tiny", "--no-baseline", "--no-confirm", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["violations"], "a real contended run must report races"
        # --no-confirm leaves races as warnings; only error-severity
        # findings (here: none) fail the run.
        assert code == (0 if all(
            v["severity"] != "error" for v in data["violations"]
        ) else 1)

    def test_session_deactivated_after_main(self, tiny_registered, capsys):
        """Sanitizing lasts for one command: afterwards the runner's
        executor builds clean simulations again."""
        main(["tiny", "--no-baseline", "--no-confirm"])
        assert not isinstance(get_executor(), SanitizingExecutor)
        assert get_executor().simulation(_tiny_config()).sanitizer is None


class TestBaselineLoop:
    def test_update_baseline_then_clean_rerun(
        self, tiny_registered, tmp_path, capsys
    ):
        target = tmp_path / "baseline.json"
        # With the confirmer on, the contended tiny run produces
        # outcome-changing (error-severity) races to inventory.
        assert main([
            "tiny", "--update-baseline", "--baseline", str(target),
        ]) == 0
        inventory = json.loads(target.read_text())
        assert inventory["entries"]
        # The inventoried baseline makes the same sweep exit clean...
        assert main(["tiny", "--baseline", str(target)]) == 0
        # ...and ignoring it fails again (the baseline is doing work).
        assert main(["tiny", "--no-baseline"]) == 1
        capsys.readouterr()
