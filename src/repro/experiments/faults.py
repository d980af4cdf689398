"""Extension experiment: availability under injected failures.

The paper's machines never fail: every algorithm is compared on a
fault-free cluster.  This extension asks how the four distributed
concurrency control algorithms degrade when the machine misbehaves,
using the deterministic fault layer in :mod:`repro.faults`:

* **Series A — node crashes.**  Per-node MTBF is swept as a multiple
  of the measurement window (with MTTR fixed at 5% of the window and a
  small background message-loss rate), so the x-axis reads "how many
  windows a node survives on average".  A crash kills the node's
  resident cohorts and volatile CC state; in-flight messages touching
  the node are lost.  This series runs at *2-way* declustering: under
  the paper's full 8-way declustering every transaction touches every
  node, so a single down node stops all commits and the
  degraded-window availability metric is zero by construction — the
  availability cost of declustering itself.  At degree 2 a one-node
  outage leaves transactions on the other relations runnable.
* **Series B — message loss.**  No crashes; the per-message loss
  probability is swept from 0 (the armed-but-idle baseline) upward at
  full 8-way declustering (maximum message exposure).  Lost votes and
  decisions exercise the 2PC timeout machinery: presumed abort on
  missing votes, decision resends, and participant-side
  blocked-on-2PC spans.

Both series run on the 8-node machine at think time 8 s over a
*fixed* measurement window (commit targets would stretch the window
under faults and make downtime fractions incomparable).

Expected shape: OPT loses the least to message loss before
certification (its cohorts never wait on remote state during
execution), while 2PL additionally exposes its Snoop detector and
blocked lock queues to failures and accumulates the most
blocked-on-2PC time; higher crash rates shift every algorithm's abort
mix from data contention to ``fault-*`` reasons.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.series import FigureSeries
from repro.core.config import (
    PlacementKind,
    SimulationConfig,
    paper_default_config,
)
from repro.core.metrics import SimulationResult
from repro.experiments.fidelity import Fidelity
from repro.experiments.runner import run_many
from repro.faults.schedule import FaultConfig

__all__ = [
    "FAULT_ALGORITHMS",
    "LOSS_PROBABILITIES",
    "MTBF_FACTORS",
    "crash_config",
    "faulted_smoke_config",
    "faults_experiment",
    "loss_config",
]

#: The paper's four distributed CC algorithms (no_dc has no 2PC).
FAULT_ALGORITHMS = ("2pl", "bto", "ww", "opt")

#: Series A x-axis: per-node MTBF in multiples of the measured window.
MTBF_FACTORS = (1.0, 2.0, 4.0, 8.0)

#: Series B x-axis: per-message loss probability (0 = armed baseline).
LOSS_PROBABILITIES = (0.0, 0.005, 0.02, 0.05)

#: Background loss rate for the crash series.
_CRASH_SERIES_LOSS = 0.002

#: Machine size and load for both series (Figure 2b operating point).
_NUM_NODES = 8
_THINK_TIME = 8.0

#: 2PC failure-detection knobs, fixed across both sweeps.  The
#: execution timeout clears the ~4 s mean response time at this
#: operating point with room for the tail; the per-phase timeouts are
#: generous multiples of a message round trip.
_EXECUTION_TIMEOUT = 12.0
_PHASE_TIMEOUT = 1.5

SweepResults = Dict[Tuple[str, float], SimulationResult]


def _base_config(
    fidelity: Fidelity, algorithm: str, degree: int
) -> SimulationConfig:
    config = paper_default_config(
        algorithm,
        think_time=_THINK_TIME,
        num_proc_nodes=_NUM_NODES,
        pages_per_partition=300,
        placement=PlacementKind.DECLUSTERED,
        placement_degree=degree,
        seed=fidelity.seed,
    )
    # Fixed window: a commit target would stretch the measurement
    # under heavy faults and make per-run downtime incomparable.
    return fidelity.apply(config).with_(target_commits=0)


def _fault_config(**overrides) -> FaultConfig:
    return FaultConfig(
        execution_timeout=_EXECUTION_TIMEOUT,
        prepare_timeout=_PHASE_TIMEOUT,
        decision_timeout=_PHASE_TIMEOUT,
        ack_timeout=_PHASE_TIMEOUT,
        **overrides,
    )


def crash_config(
    fidelity: Fidelity, algorithm: str, mtbf_factor: float
) -> SimulationConfig:
    """Series A point: node MTBF = ``mtbf_factor`` windows.

    2-way declustering — see the module docstring: full declustering
    couples every transaction to every node and zeroes the
    degraded-window commit rate by construction.
    """
    config = _base_config(fidelity, algorithm, degree=2)
    return config.with_(
        faults=_fault_config(
            node_mtbf=mtbf_factor * fidelity.duration,
            node_mttr=0.05 * fidelity.duration,
            message_loss_probability=_CRASH_SERIES_LOSS,
        )
    )


def loss_config(
    fidelity: Fidelity, algorithm: str, loss_probability: float
) -> SimulationConfig:
    """Series B point: lossy network, no crashes, full declustering."""
    config = _base_config(fidelity, algorithm, degree=_NUM_NODES)
    return config.with_(
        faults=_fault_config(
            message_loss_probability=loss_probability,
        )
    )


def faulted_smoke_config(algorithm: str) -> SimulationConfig:
    """The canonical crash/loss-faulted smoke point for ``algorithm``.

    Two crashes plus message loss inside a 15 s window after a 5 s
    warmup, at think 8 s and 2-way declustering: the injector's
    crash/recovery paths, the 2PC timeouts and the stranded-work
    audit all run.  CI's fault-injection smoke runs it for six
    distributed algorithms.
    """
    config = paper_default_config(
        algorithm, think_time=_THINK_TIME, placement_degree=2
    )
    return config.with_(
        duration=15.0,
        warmup=5.0,
        faults=_fault_config(
            node_mtbf=60.0,
            node_mttr=1.0,
            message_loss_probability=0.005,
        ),
    )


def _run_grid(
    fidelity: Fidelity,
    x_values: Sequence[float],
    config_factory,
) -> SweepResults:
    grid = [
        (algorithm, x)
        for algorithm in FAULT_ALGORITHMS
        for x in x_values
    ]
    configs = [
        config_factory(fidelity, algorithm, x)
        for algorithm, x in grid
    ]
    return dict(zip(grid, run_many(configs)))


def _metric_series(
    results: SweepResults,
    x_values: Sequence[float],
    metric: str,
    title: str,
    x_label: str,
    y_label: str,
) -> FigureSeries:
    series = FigureSeries(
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_values=list(x_values),
    )
    for algorithm in FAULT_ALGORITHMS:
        series.add_curve(
            algorithm,
            [
                getattr(results[(algorithm, x)], metric)
                for x in x_values
            ],
        )
    return series


def faults_experiment(fidelity: Fidelity) -> List[FigureSeries]:
    """Both availability sweeps; seven figure series."""
    crashes = _run_grid(fidelity, MTBF_FACTORS, crash_config)
    losses = _run_grid(fidelity, LOSS_PROBABILITIES, loss_config)
    mtbf_label = "node MTBF (windows)"
    loss_label = "message loss probability"
    return [
        _metric_series(
            crashes, MTBF_FACTORS, "throughput",
            "Faults A1: Throughput vs node MTBF",
            mtbf_label, "transactions/second",
        ),
        _metric_series(
            crashes, MTBF_FACTORS, "availability_throughput",
            "Faults A2: Commit rate while degraded vs node MTBF",
            mtbf_label, "transactions/second (degraded window)",
        ),
        _metric_series(
            crashes, MTBF_FACTORS, "failure_abort_ratio",
            "Faults A3: Failure-induced abort fraction vs node MTBF",
            mtbf_label, "fraction of aborts",
        ),
        _metric_series(
            crashes, MTBF_FACTORS, "mean_blocked_2pc_time",
            "Faults A4: Mean blocked-on-2PC span vs node MTBF",
            mtbf_label, "seconds",
        ),
        _metric_series(
            losses, LOSS_PROBABILITIES, "throughput",
            "Faults B1: Throughput vs message loss",
            loss_label, "transactions/second",
        ),
        _metric_series(
            losses, LOSS_PROBABILITIES, "failure_abort_ratio",
            "Faults B2: Failure-induced abort fraction vs message loss",
            loss_label, "fraction of aborts",
        ),
        _metric_series(
            losses, LOSS_PROBABILITIES, "mean_blocked_2pc_time",
            "Faults B3: Mean blocked-on-2PC span vs message loss",
            loss_label, "seconds",
        ),
    ]
