"""``python -m repro.sanitizer`` — exit codes and that sanitizing ends
with the command, driven through registered tiny experiments so a CLI
test costs one small simulation instead of a figure sweep."""

import json

import pytest

from repro.experiments import registry
from repro.experiments.registry import Experiment
from repro.experiments.runner import get_executor, run_config
from repro.sanitizer import checks
from repro.sanitizer.cli import main
from repro.sanitizer.executor import SanitizingExecutor

from tests.sanitizer.fixtures import draw_unregistered, tiny_config


def _tiny_experiment(fidelity):
    run_config(tiny_config())
    return []


def _unregistered_draw_experiment(fidelity):
    simulation = get_executor().simulation(tiny_config())
    draw_unregistered(simulation)
    simulation.run()
    return []


@pytest.fixture
def tiny_registered(monkeypatch):
    for experiment_id, run in (
        ("tiny", _tiny_experiment),
        ("tiny-unregistered", _unregistered_draw_experiment),
    ):
        monkeypatch.setitem(
            registry.EXPERIMENTS,
            experiment_id,
            Experiment(experiment_id, "one small run", run),
        )


class TestExitCodes:
    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["no-such-figure"]) == 2

    def test_error_finding_fails(self, tiny_registered, capsys):
        code = main(["tiny-unregistered", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [v["rule_id"] for v in data["violations"]] == [
            checks.STREAM_DISCIPLINE
        ]

    def test_clean_run_passes(self, tiny_registered, capsys):
        code = main(["tiny", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["summary"]["files"] == 1
        assert data["violations"] == []

    def test_session_deactivated_after_main(self, tiny_registered, capsys):
        """Sanitizing lasts for one command: afterwards the runner's
        executor builds clean simulations again."""
        main(["tiny"])
        assert not isinstance(get_executor(), SanitizingExecutor)
        assert get_executor().simulation(tiny_config()).sanitizer is None
