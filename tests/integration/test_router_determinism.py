"""Router and MVCC determinism under jobs and faults.

The router adds a classification + bandit layer on top of the CC
fleet, and MVCC adds version-chain state inside the node managers —
both are new consumers of the seeded streams and the kernel's event
order.  These tests pin the same purity contract the fixed algorithms
already satisfy: the mixed-blend router point is bit-identical under
parallel sweep execution, and a faulted MVCC run (crash_reset wiping
the volatile version chains mid-run) replays exactly.
"""

from repro.core.simulation import run_simulation
from repro.experiments.executor import SweepExecutor
from repro.experiments.fidelity import Fidelity
from repro.experiments.router import mixed_config
from repro.faults.schedule import FaultConfig

FIDELITY = Fidelity.smoke()


def _assert_identical(reference, other):
    assert reference.as_dict() == other.as_dict()
    # Router decomposition fields are not part of the flat dict;
    # "bit-identical" covers the routing decisions themselves too.
    assert (
        reference.router_class_commits == other.router_class_commits
    )
    assert reference.router_class_aborts == other.router_class_aborts
    assert (
        reference.router_class_mean_response
        == other.router_class_mean_response
    )
    assert (
        reference.router_class_algorithms
        == other.router_class_algorithms
    )


def test_router_jobs_parity():
    """Parallel sweep execution must not perturb routing decisions."""
    configs = [
        mixed_config(FIDELITY, algorithm, 0.0)
        for algorithm in ("router", "mvcc")
    ]
    serial = SweepExecutor(jobs=1).run_many(configs)
    routed = serial[0]
    assert routed.commits > 0
    assert routed.router_enabled
    # The run exercised the bandit: more than one algorithm class.
    assert len(routed.router_class_commits) > 1
    parallel = SweepExecutor(jobs=2).run_many(configs)
    for one, two in zip(serial, parallel):
        _assert_identical(one, two)


def _faulted_mvcc_config():
    """MVCC under real crashes: every crash calls ``crash_reset``,
    wiping that node's version chains and pending intents mid-run."""
    config = mixed_config(FIDELITY, "mvcc", 1.0)
    return config.with_(
        faults=FaultConfig(
            node_mtbf=15.0,
            node_mttr=0.5,
            execution_timeout=5.0,
            prepare_timeout=1.0,
            decision_timeout=1.0,
            ack_timeout=1.0,
        )
    )


def test_faulted_mvcc_recovers_and_replays():
    """Crash/recover on an MVCC machine: the run survives version-
    chain wipes (commits continue after recovery) and stays a pure
    function of the seed."""
    config = _faulted_mvcc_config()
    first = run_simulation(config)
    assert first.node_crashes > 0  # crash_reset actually fired
    assert first.commits > 0
    second = run_simulation(config)
    assert first.as_dict() == second.as_dict()
    assert first.per_node_downtime == second.per_node_downtime
