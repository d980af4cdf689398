"""Simulation-level sanitizer contract.

The load-bearing property: sanitizer-on results are bit-identical to
clean runs (the hooks only observe), and a real contended run breaks
none of the checks.
"""

from repro.core.simulation import Simulation
from repro.experiments.runner import using_executor
from repro.sanitizer.core import Sanitizer
from repro.sanitizer.executor import SanitizingExecutor

from tests.sanitizer.fixtures import draw_unregistered, tiny_config


def sanitized_run(config):
    """Run ``config`` under a fresh sanitizer: (result, findings)."""
    sanitizer = Sanitizer()
    result = Simulation(config, sanitizer=sanitizer).run()
    return result, sanitizer.finalize()


class TestBitIdentical:
    def test_sanitized_result_equals_clean_result(self):
        clean = Simulation(tiny_config()).run()
        sanitized, _ = sanitized_run(tiny_config())
        assert sanitized.as_dict() == clean.as_dict()

    def test_sanitized_rerun_is_deterministic(self):
        _, first = sanitized_run(tiny_config())
        _, second = sanitized_run(tiny_config())
        assert [v.as_dict() for v in first] == [
            v.as_dict() for v in second
        ]


class TestRealRun:
    def test_contended_run_reports_no_finding(self):
        result, findings = sanitized_run(
            tiny_config(think_time=0.0, terminals=16)
        )
        assert result.blocking_count > 0  # lock waits happened
        assert findings == []


class TestModeSelection:
    def test_explicit_sanitizer_does_not_publish(self):
        """A caller's own Sanitizer is the caller's to finalize: a
        sanitizing executor swapped in counts neither the run nor its
        findings."""
        executor = SanitizingExecutor()
        sanitizer = Sanitizer()
        with using_executor(executor):
            simulation = Simulation(tiny_config(), sanitizer=sanitizer)
            draw_unregistered(simulation)
            simulation.run()
        assert sanitizer.finalize()
        assert executor.runs == 0
        assert executor.findings() == []


class TestFinishedRun:
    def test_keeps_only_its_findings(self):
        """A sweep holds every run's sanitizer until it reports, so a
        finished one must not pin its simulation."""
        sanitizer = Sanitizer()
        simulation = Simulation(tiny_config(), sanitizer=sanitizer)
        draw_unregistered(simulation)
        simulation.run()
        assert not sanitizer._processes
        assert sanitizer.finalize()
