"""Determinism and accounting-invariant tests.

The simulator must be a pure function of its configuration (seed
included): identical configs give bit-identical results, across every
algorithm and placement.  On top of that, a set of accounting
invariants must hold for any run — these are checked over a small
randomized family of configurations with hypothesis.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    PlacementKind,
    TransactionClassConfig,
    WorkloadConfig,
    paper_default_config,
)
from repro.core.simulation import Simulation, run_simulation
from repro.experiments.executor import (
    SweepExecutionError,
    SweepExecutor,
)
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import scaling_config
from repro.faults.schedule import FaultConfig
from repro.sanitizer.core import Sanitizer

ALGORITHMS = ("2pl", "ww", "bto", "opt", "no_dc", "wd", "ir")


def tiny_config(algorithm, seed=7, think_time=1.0, degree=8,
                copies=1, terminals=16, write_probability=0.125):
    placement = (
        PlacementKind.COLOCATED if degree == 1
        else PlacementKind.DECLUSTERED
    )
    config = paper_default_config(
        algorithm,
        think_time=think_time,
        placement=placement,
        placement_degree=degree,
        seed=seed,
    ).with_database(copies=copies)
    workload = WorkloadConfig(
        num_terminals=terminals,
        think_time=think_time,
        classes=(
            TransactionClassConfig(
                write_probability=write_probability
            ),
        ),
    )
    return config.with_(duration=6.0, warmup=2.0, workload=workload)


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_identical_configs_identical_results(self, algorithm):
        first = run_simulation(tiny_config(algorithm))
        second = run_simulation(tiny_config(algorithm))
        assert first.as_dict() == second.as_dict()

    def test_algorithm_changes_only_cc_behaviour(self):
        """Common random numbers: with no contention effects (light
        load), all algorithms see the same workload and produce the
        same commits."""
        counts = {
            algorithm: run_simulation(
                tiny_config(
                    algorithm,
                    think_time=30.0,
                    terminals=4,
                    write_probability=0.0,
                )
            ).commits
            for algorithm in ("2pl", "bto", "opt", "no_dc")
        }
        assert len(set(counts.values())) == 1, counts


def faulty_tiny_config(algorithm, seed=7):
    """A tiny run with real crashes, repairs, and message loss."""
    return tiny_config(algorithm, seed=seed).with_(
        faults=FaultConfig(
            node_mtbf=2.0,
            node_mttr=0.3,
            message_loss_probability=0.02,
            execution_timeout=3.0,
            prepare_timeout=0.5,
            decision_timeout=0.5,
            ack_timeout=0.5,
        )
    )


class TestFaultDeterminism:
    """Fault injection must preserve the pure-function property: a
    faulty run is just as replayable as a failure-free one."""

    @pytest.mark.parametrize("algorithm", ("2pl", "opt"))
    def test_faulty_same_seed_pair_bit_identical(self, algorithm):
        first = run_simulation(faulty_tiny_config(algorithm))
        second = run_simulation(faulty_tiny_config(algorithm))
        assert first.node_crashes > 0  # faults actually fired
        assert first.as_dict() == second.as_dict()
        assert first.per_node_downtime == second.per_node_downtime


def _scaling_point(algorithm, think_time, faults=None):
    """A smoke-fidelity point of the Figure 2 scaling workload."""
    config = scaling_config(
        Fidelity.smoke(),
        algorithm=algorithm,
        think_time=think_time,
        num_nodes=8,
    )
    return config.with_(
        target_commits=0, max_duration=config.duration, faults=faults
    )


INSTRUMENTED_POINTS = {
    # Figure 2's saturated end: 8-node 2PL at think 0.
    "fig02": lambda: _scaling_point("2pl", 0.0),
    # A Figure 10-style point: OPT under heavy load, where restarts
    # make the schedule highly sensitive to event ordering.
    "fig10": lambda: _scaling_point("opt", 0.0),
    # Crash/recovery timers and retransmissions reach the kernel on
    # paths the failure-free points never touch.
    "faulted": lambda: _scaling_point(
        "2pl",
        8.0,
        FaultConfig(
            node_mtbf=60.0,
            node_mttr=1.0,
            message_loss_probability=0.005,
        ),
    ),
}


class TestInstrumentedLoopParity:
    """A sanitized run goes through the kernel's instrumented dispatch
    loop, a clean run through the clean loop.  The sanitizer only
    observes, so every reported number must be identical: that is what
    lets the differential confirmer blame any perturbed-run difference
    on same-timestamp ordering alone."""

    @pytest.mark.parametrize(
        "point", list(INSTRUMENTED_POINTS), ids=list(INSTRUMENTED_POINTS)
    )
    def test_sanitized_equals_clean(self, point):
        config = INSTRUMENTED_POINTS[point]()
        clean = run_simulation(config)
        sanitized = Simulation(
            config, sanitizer=Sanitizer(confirm=False)
        ).run()
        assert clean.commits > 0
        assert clean.as_dict() == sanitized.as_dict()
        # The flat dict omits the per-node breakdowns; "identical"
        # means every reported number, so compare those too.
        assert (
            clean.per_node_cpu_utilization
            == sanitized.per_node_cpu_utilization
        )
        assert (
            clean.per_node_disk_utilization
            == sanitized.per_node_disk_utilization
        )
        assert clean.abort_reasons == sanitized.abort_reasons
        assert clean.per_node_downtime == sanitized.per_node_downtime


class TestParallelDeterminism:
    """Parallel sweeps must be bit-identical to serial sweeps, and
    worker failures must surface as errors, never as dropped points."""

    def _grid(self):
        return [
            tiny_config(algorithm, think_time=think_time)
            for algorithm in ("2pl", "opt", "no_dc")
            for think_time in (0.0, 1.0)
        ]

    def test_jobs2_equals_jobs1_exactly(self):
        configs = self._grid()
        serial = SweepExecutor(jobs=1).run_many(configs)
        parallel = SweepExecutor(jobs=2).run_many(configs)
        assert [r.as_dict() for r in parallel] == [
            r.as_dict() for r in serial
        ]
        assert [
            r.per_node_cpu_utilization for r in parallel
        ] == [r.per_node_cpu_utilization for r in serial]

    def test_sweep_jobs_equality_via_runner(self):
        from repro.experiments.runner import sweep

        def factory(algorithm, think_time):
            return tiny_config(algorithm, think_time=think_time)

        serial = sweep(("opt", "no_dc"), (0.0, 1.0), factory, jobs=1)
        parallel = sweep(("opt", "no_dc"), (0.0, 1.0), factory, jobs=2)
        assert list(serial) == list(parallel)
        assert {
            key: value.as_dict() for key, value in serial.items()
        } == {
            key: value.as_dict() for key, value in parallel.items()
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_crash_surfaces_as_error(self, jobs):
        """An unknown algorithm passes config validation but fails
        inside the simulation; the failure must carry the config
        rather than silently dropping the grid point."""
        configs = [
            tiny_config("no_dc"),
            tiny_config("no_dc").with_(cc_algorithm="bogus"),
        ]
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepExecutor(jobs=jobs).run_many(configs)
        assert excinfo.value.config.cc_algorithm == "bogus"


@given(
    algorithm=st.sampled_from(ALGORITHMS),
    seed=st.integers(min_value=0, max_value=10_000),
    degree=st.sampled_from([1, 2, 4, 8]),
    copies=st.sampled_from([1, 2]),
    think_time=st.sampled_from([0.0, 1.0, 5.0]),
)
@settings(max_examples=40, deadline=None)
def test_accounting_invariants(
    algorithm, seed, degree, copies, think_time
):
    result = run_simulation(
        tiny_config(
            algorithm,
            seed=seed,
            think_time=think_time,
            degree=degree,
            copies=copies,
        )
    )
    assert result.commits >= 0
    assert result.aborts >= 0
    if result.commits:
        assert result.abort_ratio == pytest.approx(
            result.aborts / result.commits
        )
        assert result.throughput == pytest.approx(
            result.commits / result.measured_duration
        )
        assert result.mean_response_time > 0
    assert 0.0 <= result.avg_disk_utilization <= 1.0
    assert 0.0 <= result.avg_node_cpu_utilization <= 1.0
    assert 0.0 <= result.host_cpu_utilization <= 1.0
    if algorithm in ("opt", "no_dc", "ir"):
        assert result.blocking_count == 0
    if algorithm == "no_dc":
        assert result.aborts == 0
