"""The sanitizing executor behind ``python -m repro.sanitizer``.

The CLI swaps a :class:`SanitizingExecutor` in as the runner's
process-wide executor for one command.  The contracts under test:

* sanitized runs and the result cache never mix, in either direction:
  a cache hit would skip the instrumented run, and a sanitized entry
  would look like a clean one to every later run;
* a config requested twice is sanitized once, and the pool is never
  used, so no run's findings die with a worker;
* the runner's own executor comes back after the command, also when
  an experiment raises;
* findings merge across runs, each distinct one once.
"""

import json

import pytest

from repro.core.simulation import Simulation
from repro.experiments import registry, runner, worker_pool
from repro.experiments.registry import Experiment
from repro.sanitizer.cli import main
from repro.sanitizer.executor import SanitizingExecutor

from tests.sanitizer.fixtures import draw_unregistered, tiny_config


def finding_key(violation):
    return (
        violation.rule_id,
        violation.path,
        violation.line,
        violation.message,
    )


@pytest.fixture
def register(monkeypatch):
    """Register ``run`` as experiment ``experiment_id`` for one test."""

    def _register(experiment_id, run):
        monkeypatch.setitem(
            registry.EXPERIMENTS,
            experiment_id,
            Experiment(experiment_id, "test experiment", run),
        )

    return _register


@pytest.fixture
def default_executor():
    """The runner's executor with a fresh memo and fresh counters,
    detached from any disk cache afterwards."""
    runner.clear_cache()
    yield runner.get_executor()
    runner.configure()
    runner.clear_cache()


def sanitize(ids, capsys):
    """Run the CLI; return its JSON summary."""
    main(list(ids) + ["--format", "json"])
    return json.loads(capsys.readouterr().out)["summary"]


class TestCacheIsolation:
    def test_cli_run_reads_no_warm_entry(
        self, register, default_executor, tmp_path, capsys
    ):
        runner.configure(jobs=1, cache_dir=tmp_path / "cache")
        runner.run_config(tiny_config())  # warms the memo and the disk
        cache = default_executor.cache
        before = cache.stats.as_dict()
        register("tiny", lambda fidelity: [runner.run_config(tiny_config())])
        summary = sanitize(["tiny"], capsys)
        assert summary["files"] == 1  # simulated under the hooks
        assert cache.stats.as_dict() == before
        assert default_executor.stats.memo_hits == 0
        assert default_executor.stats.disk_hits == 0

    def test_cli_sweep_reads_no_disk_entry(
        self, register, default_executor, tmp_path, capsys
    ):
        runner.configure(jobs=1, cache_dir=tmp_path / "cache")
        [clean] = runner.run_many([tiny_config()])
        runner.clear_cache()  # only the disk entry stays warm
        cache = default_executor.cache
        assert cache.get(tiny_config()) is not None
        before = cache.stats.as_dict()
        sanitized = []

        def sweep(fidelity):
            sanitized.extend(runner.run_many([tiny_config()]))
            return sanitized

        register("tiny", sweep)
        summary = sanitize(["tiny"], capsys)
        assert summary["files"] == 1  # simulated under the hooks
        assert cache.stats.as_dict() == before
        # The hooks only observe: the result is the clean one.
        assert sanitized[0].as_dict() == clean.as_dict()

    def test_cli_run_writes_no_entry(
        self, register, default_executor, tmp_path, capsys
    ):
        runner.configure(jobs=1, cache_dir=tmp_path / "cache")
        register("tiny", lambda fidelity: runner.run_many([tiny_config()]))
        sanitize(["tiny"], capsys)
        cache = default_executor.cache
        assert cache.entry_count() == 0
        assert cache.get(tiny_config()) is None
        # A later clean run finds nothing to trust and simulates.
        runner.run_config(tiny_config())
        assert default_executor.stats.simulated == 1
        assert default_executor.stats.disk_hits == 0


class TestExecution:
    def test_config_requested_twice_is_sanitized_once(
        self, register, capsys
    ):
        def twice(fidelity):
            runner.run_config(tiny_config())
            return runner.run_many([tiny_config(), tiny_config()])

        register("twice", twice)
        summary = sanitize(["twice"], capsys)
        assert summary["files"] == 1

    def test_pool_generation_does_not_move(self, register, capsys):
        """Even a batch that asks for two workers stays in-process."""
        register(
            "pair",
            lambda fidelity: runner.run_many(
                [tiny_config(seed=11), tiny_config(seed=12)], jobs=2
            ),
        )
        # With no live pool, any use of one would spawn a generation.
        worker_pool.shutdown_pool()
        generation = worker_pool.pool_generation()
        summary = sanitize(["pair"], capsys)
        assert worker_pool.pool_generation() == generation
        assert summary["files"] == 2

    def test_scaleout_style_build_is_sanitized(self, register, capsys):
        """An experiment that times its own run builds it through the
        runner's executor and runs it itself, as scaleout does."""
        built = []

        def timed(fidelity):
            simulation = runner.get_executor().simulation(tiny_config())
            built.append(simulation)
            draw_unregistered(simulation)
            simulation.run()
            return []

        register("timed", timed)
        summary = sanitize(["timed"], capsys)
        [simulation] = built
        assert simulation.sanitizer is not None
        assert summary["files"] == 1
        assert summary["violations"] == 1

    def test_each_command_starts_empty(self, register, capsys):
        register("tiny", lambda fidelity: [runner.run_config(tiny_config())])
        first = sanitize(["tiny"], capsys)
        second = sanitize(["tiny"], capsys)
        assert first == second
        assert second["files"] == 1


class TestSwap:
    def test_default_executor_builds_clean_simulations(self):
        simulation = runner.get_executor().simulation(tiny_config())
        assert simulation.sanitizer is None

    def test_only_executor_builds_are_sanitized(self):
        """No process-wide switch: with a sanitizing executor swapped
        in, a directly built Simulation runs clean."""
        executor = SanitizingExecutor()
        with runner.using_executor(executor):
            direct = Simulation(tiny_config())
            assert direct.sanitizer is None
            direct.run()
        assert executor.runs == 0
        assert executor.findings() == []

    def test_default_executor_restored_after_command(
        self, register, capsys
    ):
        before = runner.get_executor()
        seen = []
        register(
            "probe",
            lambda fidelity: seen.append(runner.get_executor()) or [],
        )
        sanitize(["probe"], capsys)
        [during] = seen
        assert isinstance(during, SanitizingExecutor)
        assert runner.get_executor() is before

    def test_default_executor_restored_after_an_experiment_raises(
        self, register, capsys
    ):
        before = runner.get_executor()

        def boom(fidelity):
            raise RuntimeError("experiment failed")

        register("boom", boom)
        with pytest.raises(RuntimeError, match="experiment failed"):
            main(["boom"])
        assert runner.get_executor() is before


class TestFindings:
    def test_runs_counted_and_findings_collected(self):
        executor = SanitizingExecutor()
        simulation = executor.simulation(tiny_config())
        assert executor.runs == 1
        draw_unregistered(simulation)
        simulation.run()
        own = [finding_key(v) for v in simulation.sanitizer.finalize()]
        assert own
        assert [finding_key(v) for v in executor.findings()] == own

    def test_findings_deduplicated_across_runs(self):
        """Each run's findings, merged in run order; a finding every
        run reports is one row, as in the report."""
        executor = SanitizingExecutor()
        simulations = [
            executor.simulation(tiny_config(seed=seed))
            for seed in (11, 12, 13)
        ]
        for simulation in simulations:
            draw_unregistered(simulation)
            simulation.run()
        assert executor.runs == 3
        per_run = [
            [finding_key(v) for v in simulation.sanitizer.finalize()]
            for simulation in simulations
        ]
        expected = []
        for keys in per_run:
            for key in keys:
                if key not in expected:
                    expected.append(key)
        merged = [finding_key(v) for v in executor.findings()]
        assert merged == expected
        assert len(merged) < sum(len(keys) for keys in per_run)
