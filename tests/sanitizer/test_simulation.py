"""Simulation-level sanitizer contract.

The load-bearing property: sanitizer-on results are bit-identical to
clean runs (the hooks only observe), which is what entitles the
differential confirmer to attribute any perturbed-run difference to
same-timestamp ordering rather than to the instrumentation itself.
"""

import pytest

from repro.core.config import paper_default_config
from repro.core.simulation import Simulation
from repro.experiments.runner import using_executor
from repro.sanitizer import checks
from repro.sanitizer.core import Sanitizer, diff_results
from repro.sanitizer.executor import SanitizingExecutor
from repro.sim.kernel import Environment, SimulationError


def tiny_config(algorithm="2pl", seed=11):
    """Small enough for a sub-second run, contended enough to produce
    same-timestamp activity on shared resources."""
    return paper_default_config(
        algorithm, think_time=1.0, seed=seed
    ).with_(duration=4.0, warmup=1.0).with_workload(num_terminals=6)


def sanitized_run(config, confirm):
    """Run ``config`` under a fresh sanitizer: (result, findings)."""
    sanitizer = Sanitizer(confirm=confirm)
    result = Simulation(config, sanitizer=sanitizer).run()
    return result, sanitizer.finalize()


class TestBitIdentical:
    def test_sanitized_result_equals_clean_result(self):
        clean = Simulation(tiny_config()).run()
        sanitized, _ = sanitized_run(tiny_config(), confirm=False)
        assert diff_results(clean, sanitized) == ""

    def test_sanitized_rerun_is_deterministic(self):
        _, first = sanitized_run(tiny_config(), confirm=False)
        _, second = sanitized_run(tiny_config(), confirm=False)
        assert [v.as_dict() for v in first] == [
            v.as_dict() for v in second
        ]


class TestConfirmer:
    def test_contended_run_produces_races(self):
        _, findings = sanitized_run(tiny_config(), confirm=False)
        races = [
            v for v in findings if v.rule_id == checks.SAME_TIME_RACE
        ]
        assert races, "expected same-timestamp activity in a real run"
        assert all("[unconfirmed]" in v.message for v in races)
        assert all(v.severity == "warning" for v in races)

    def test_confirmer_classifies_every_race(self):
        _, findings = sanitized_run(tiny_config(), confirm=True)
        races = [
            v for v in findings if v.rule_id == checks.SAME_TIME_RACE
        ]
        assert races
        for violation in races:
            benign = "[benign-commutative" in violation.message
            changing = "[outcome-changing" in violation.message
            assert benign != changing
            assert violation.severity == (
                "warning" if benign else "error"
            )

    def test_verdict_to_severity_mapping(self):
        """Unit-level pin of the classification table."""
        for verdict, severity, fragment in (
            (True, "error", "outcome-changing"),
            (False, "warning", "benign-commutative"),
        ):
            sanitizer = Sanitizer(confirm=False)
            sanitizer._races.append(
                {"path": "x.py", "line": 1, "message": "conflict"}
            )
            sanitizer._race_verdict = verdict
            [finding] = sanitizer.finalize()
            assert finding.severity == severity
            assert fragment in finding.message

    def test_perturbed_run_is_deterministic(self):
        """reverse-batch is a fixed alternative order, not a shuffle:
        the confirmer's verdict must be reproducible."""
        first = Simulation(tiny_config(), tiebreak="reverse-batch").run()
        second = Simulation(tiny_config(), tiebreak="reverse-batch").run()
        assert diff_results(first, second) == ""


class TestDiffResults:
    def test_identical_runs_diff_empty(self):
        first = Simulation(tiny_config()).run()
        second = Simulation(tiny_config()).run()
        assert diff_results(first, second) == ""

    def test_different_seeds_diff_names_fields(self):
        first = Simulation(tiny_config(seed=11)).run()
        second = Simulation(tiny_config(seed=12)).run()
        diff = diff_results(first, second)
        assert diff != ""


class TestModeSelection:
    def test_sanitizer_excludes_tiebreak(self):
        with pytest.raises(SimulationError):
            Environment(
                sanitizer=Sanitizer(confirm=False),
                tiebreak="reverse-batch",
            )

    def test_bogus_tiebreak_rejected(self):
        with pytest.raises(ValueError):
            Environment(tiebreak="random")

    def test_fifo_tiebreak_is_the_clean_loop(self):
        explicit = Simulation(tiny_config(), tiebreak="fifo").run()
        default = Simulation(tiny_config()).run()
        assert diff_results(explicit, default) == ""

    def test_explicit_sanitizer_does_not_publish(self):
        """A caller's own Sanitizer is the caller's to finalize: a
        sanitizing executor swapped in counts neither the run nor its
        findings."""
        executor = SanitizingExecutor(confirm=False)
        sanitizer = Sanitizer(confirm=False)
        with using_executor(executor):
            Simulation(tiny_config(), sanitizer=sanitizer).run()
        assert sanitizer.finalize()
        assert executor.runs == 0
        assert executor.findings() == []


class TestFinishedRun:
    def test_keeps_only_its_findings(self):
        """A sweep holds every run's sanitizer until it reports, so a
        finished one must not pin its simulation."""
        sanitizer = Sanitizer(confirm=True)
        Simulation(tiny_config(), sanitizer=sanitizer).run()
        assert sanitizer.env is None
        assert not sanitizer._processes
        assert not sanitizer._last_access
        assert sanitizer.finalize()
