"""Fault injector integration tests on tiny end-to-end simulations.

Explicit crash/recover timelines give exact downtime accounting;
stochastic timelines prove every algorithm survives faults (commits
keep flowing, nothing is left stranded on a dead node — the leak
audit inside ``Simulation.run`` raises otherwise, as ``TestLeakAudit``
shows).
"""

import pytest

from repro.core.config import (
    PlacementKind,
    TransactionClassConfig,
    WorkloadConfig,
    paper_default_config,
)
from repro.core.network import HOST_NODE
from repro.core.simulation import Simulation, run_simulation
from repro.faults.schedule import FaultConfig, FaultEvent
from repro.sim.kernel import SimulationError

ALGORITHMS = ("2pl", "ww", "bto", "opt", "no_dc", "wd", "ir")

#: 2PC hardening knobs sized for the tiny 8s horizon below: the
#: execution timeout must exceed the natural response time (well under
#: 1s here) and the phase timeouts must allow several resend rounds.
TIMEOUTS = dict(
    execution_timeout=3.0,
    prepare_timeout=0.5,
    decision_timeout=0.5,
    ack_timeout=0.5,
)


def tiny_config(algorithm, faults, seed=7, degree=2):
    config = paper_default_config(
        algorithm,
        think_time=1.0,
        placement=PlacementKind.DECLUSTERED,
        placement_degree=degree,
        seed=seed,
    )
    workload = WorkloadConfig(
        num_terminals=16,
        think_time=1.0,
        classes=(TransactionClassConfig(write_probability=0.125),),
    )
    return config.with_(
        duration=6.0, warmup=2.0, workload=workload, faults=faults
    )


class TestExplicitTimeline:
    def run_one_outage(self, algorithm="2pl"):
        faults = FaultConfig(
            events=(
                FaultEvent(3.0, "crash", 0),
                FaultEvent(4.5, "recover", 0),
            ),
            **TIMEOUTS,
        )
        return run_simulation(tiny_config(algorithm, faults))

    def test_single_outage_is_counted_and_survived(self):
        result = self.run_one_outage()
        assert result.faults_enabled
        assert result.node_crashes == 1
        assert result.commits > 0

    def test_downtime_accounting_is_exact(self):
        """Measurement window is [2.0, 8.0]; node 0 is down exactly
        over [3.0, 4.5]."""
        result = self.run_one_outage()
        assert result.per_node_downtime[0] == pytest.approx(1.5)
        assert all(
            downtime == 0.0
            for downtime in result.per_node_downtime[1:]
        )
        assert len(result.per_node_downtime) == 8

    def test_warmup_outage_is_not_counted(self):
        """An outage over [0.5, 1.0] ends inside the 2 s warmup, so
        the measurement window sees no crash, downtime, degraded
        commit or dropped message."""
        faults = FaultConfig(
            events=(
                FaultEvent(0.5, "crash", 0),
                FaultEvent(1.0, "recover", 0),
            ),
            **TIMEOUTS,
        )
        result = run_simulation(tiny_config("2pl", faults))
        assert result.node_crashes == 0
        assert result.per_node_downtime == [0.0] * 8
        assert result.commits_despite_faults == 0
        assert result.messages_dropped == 0

    def test_unrecovered_crash_downtime_extends_to_sim_end(self):
        """A node that never repairs accrues downtime to the end of
        the run and still must not strand any process (the leak check
        inside run() would raise)."""
        faults = FaultConfig(
            events=(FaultEvent(5.0, "crash", 3),), **TIMEOUTS
        )
        result = run_simulation(tiny_config("2pl", faults))
        assert result.node_crashes == 1
        assert result.per_node_downtime[3] == pytest.approx(3.0)

    def test_overlapping_outages_merge(self):
        """A second crash of an already-down node neither double
        counts nor extends bookkeeping."""
        faults = FaultConfig(
            events=(
                FaultEvent(3.0, "crash", 0),
                FaultEvent(3.5, "crash", 0),
                FaultEvent(4.0, "recover", 0),
            ),
            **TIMEOUTS,
        )
        result = run_simulation(tiny_config("2pl", faults))
        assert result.node_crashes == 1
        assert result.per_node_downtime[0] == pytest.approx(1.0)


class TestArmedButIdle:
    """Attaching a FaultConfig with no actual faults arms every
    timeout and monitoring hook but must not change any reported
    simulation number: the hardening is pure observation until a
    fault actually fires."""

    _FAULT_KEYS = (
        "faults",
        "node_crashes",
        "degraded_commits",
        "availability_tput",
        "failure_abort_ratio",
        "blocked_2pc_time",
        "blocked_2pc_count",
        "messages_dropped",
    )

    @pytest.mark.parametrize("algorithm", ("2pl", "opt"))
    def test_results_match_failure_free_run(self, algorithm):
        baseline = run_simulation(
            tiny_config(algorithm, faults=None)
        ).as_dict()
        armed = run_simulation(
            tiny_config(algorithm, faults=FaultConfig())
        ).as_dict()
        assert armed["faults"] is True
        assert armed["node_crashes"] == 0
        for key in self._FAULT_KEYS:
            baseline.pop(key)
            armed.pop(key)
        assert armed == baseline


class TestStochasticTimeline:
    def stochastic_faults(self):
        return FaultConfig(
            node_mtbf=4.0,
            node_mttr=0.4,
            message_loss_probability=0.01,
            **TIMEOUTS,
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_survives_faults(self, algorithm):
        result = run_simulation(
            tiny_config(algorithm, self.stochastic_faults())
        )
        assert result.faults_enabled
        assert result.commits > 0
        assert len(result.per_node_downtime) == 8
        assert result.node_crashes >= 1

    def test_faulty_run_is_reproducible(self):
        config = tiny_config("bto", self.stochastic_faults())
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.as_dict() == second.as_dict()
        assert (
            first.per_node_downtime == second.per_node_downtime
        )

    def test_message_loss_is_counted(self):
        faults = FaultConfig(
            message_loss_probability=0.05, **TIMEOUTS
        )
        result = run_simulation(tiny_config("2pl", faults))
        assert result.messages_dropped > 0
        assert result.commits > 0


class _Resident:
    """A cohort as the injector tracks it: a node and a process."""

    def __init__(self, node, process):
        self.node = node
        self.process = process


class TestLeakAudit:
    """Every faulted ``Simulation.run`` ends with
    ``FaultInjector.assert_no_leaks``: work still alive on a node that
    is down at the end means the crash machinery missed it.  Each test
    plants one piece of such work on node 0, which crashes at 3 s."""

    #: The name the error reports for each kind of planted work.
    STRANDED = {
        "cohort": "stranded-cohort",
        "courier": "msg--1->0:list.append",
    }

    def run_with_stranded(self, kind, events):
        simulation = Simulation(
            tiny_config("2pl", FaultConfig(events=events, **TIMEOUTS))
        )
        env = simulation.env

        def stuck():
            yield env.event()  # nothing will ever succeed it

        def strand_cohort():
            # Registered after the crash, so nothing interrupts it.
            process = env.process(stuck(), name="stranded-cohort")
            simulation.fault_injector.register_resident(
                _Resident(0, process)
            )

        def strand_courier():
            # Sent past the fault filter at the 8 s horizon, so its
            # first CPU charge is still being served when the run ends.
            simulation.network._transmit(HOST_NODE, 0, [].append, "lost")

        if kind == "cohort":
            env.schedule(3.5, strand_cohort)
        else:
            env.schedule(8.0, strand_courier)
        return simulation.run()

    @pytest.mark.parametrize("kind", ["cohort", "courier"])
    def test_work_stranded_on_a_down_node_raises(self, kind):
        crash_only = (FaultEvent(3.0, "crash", 0),)
        with pytest.raises(SimulationError) as raised:
            self.run_with_stranded(kind, crash_only)
        assert str(raised.value) == (
            "stranded on crashed nodes at simulation end: "
            + self.STRANDED[kind]
        )

    @pytest.mark.parametrize("kind", ["cohort", "courier"])
    def test_work_on_a_recovered_node_passes(self, kind):
        outage = (
            FaultEvent(3.0, "crash", 0),
            FaultEvent(4.5, "recover", 0),
        )
        result = self.run_with_stranded(kind, outage)
        assert result.node_crashes == 1
        assert result.commits > 0
