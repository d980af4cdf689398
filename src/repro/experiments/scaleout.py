"""Extension: scaleout of the simulated machine itself (ROADMAP §perf).

The paper stops at 8 processing nodes and 128 terminals.  This
experiment grows the *simulated machine* two orders of magnitude beyond
that — up to 1000 nodes and 10⁵ terminals — while holding the per-node
load fixed, and reports three curves against machine size:

* **throughput** — committed transactions per simulated second.  With
  per-node load fixed it should scale linearly in the node count; a
  bend would indicate an accidental global bottleneck in the model
  (the host node is exercised by every arrival, so this is a real
  check, not a tautology).
* **p99 response time** — should stay flat: every transaction touches
  one 8-partition relation regardless of machine size, so queueing is
  purely local.
* **wall-clock events per second** — a *simulator* metric, not a model
  metric: dispatched kernel events divided by wall-clock run time.
  The pending-event population grows with the terminal count, so this
  curve shows what the kernel's O(log n) heap costs as the population
  reaches the tens of thousands.  Wall-clock numbers are machine-
  dependent and non-deterministic, so this figure is measured on fresh
  in-process runs (never cached) and is excluded from determinism
  comparisons.

Scaleout configuration, relative to the paper's §4.2 machine: the
relation count grows with the machine (one new 8-partition,
degree-8-declustered relation per added node, so every node hosts
partitions of exactly 8 relations) and each relation keeps its own
fixed population of terminals.  Think time is high (360 s) so the
machine runs arrival-dominated at ~20% per-node disk utilization:
most terminals are idle at any instant, which is precisely the regime
where the pending-event population — and therefore scheduler cost —
is proportional to the terminal count.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from repro.analysis.series import FigureSeries
from repro.core.config import (
    PlacementKind,
    SimulationConfig,
    paper_default_config,
)
from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity

__all__ = [
    "DEGREE",
    "TERMINALS_PER_NODE",
    "THINK_TIME",
    "scaleout_config",
    "scaleout_experiment",
    "scaleout_node_counts",
]

#: Terminals attached per processing node (10⁵ at 1000 nodes).
TERMINALS_PER_NODE = 100

#: Mean think time (s).  High on purpose: see the module docstring.
THINK_TIME = 360.0

#: Declustering degree — the paper's full-declustering for an
#: 8-partition relation.  Machines smaller than 8 nodes fall back to
#: machine-wide declustering.
DEGREE = 8


def scaleout_node_counts(fidelity: Fidelity) -> Tuple[int, ...]:
    """The machine sizes swept at each fidelity level.

    Wall-clock cost grows linearly with the node count (fixed per-node
    load), so the smoke preset stays small and only ``bench``/``full``
    reach the 1000-node / 10⁵-terminal point.
    """
    if fidelity.name == "smoke":
        return (4, 16, 64)
    if fidelity.name == "quick":
        return (8, 32, 128)
    return (8, 64, 256, 1000)


def scaleout_config(
    fidelity: Fidelity,
    num_nodes: int,
    algorithm: str = "2pl",
    terminals_per_node: int = TERMINALS_PER_NODE,
    think_time: float = THINK_TIME,
) -> SimulationConfig:
    """One fixed-per-node-load machine-size point.

    Every node hosts 8 partitions (of 8 distinct relations once the
    machine is at least 8 nodes wide) and every relation carries
    ``terminals_per_node`` terminals, so both the storage and the
    offered load per node are independent of the machine size.
    """
    if num_nodes == 1:
        placement = PlacementKind.COLOCATED
        degree = 1
    else:
        placement = PlacementKind.DECLUSTERED
        degree = min(DEGREE, num_nodes)
    config = paper_default_config(
        algorithm,
        think_time=think_time,
        num_proc_nodes=num_nodes,
        pages_per_partition=300,
        placement=placement,
        placement_degree=degree,
        seed=fidelity.seed,
    )
    config = config.with_database(
        num_relations=max(num_nodes, 8)
    ).with_workload(
        num_terminals=terminals_per_node * num_nodes
    )
    # Run control: a fixed window, shorter than the figure presets.
    # Event counts here are enormous (10⁴-10⁵ concurrent terminals),
    # so statistical quality comes from the population, not the
    # window, and commit-targeted extension would multiply the
    # wall-clock cost of the big points for nothing.
    duration = min(fidelity.duration, 30.0)
    return config.with_(
        duration=duration,
        warmup=min(fidelity.warmup, 10.0),
        target_commits=0,
        max_duration=duration,
    )


def scaleout_experiment(fidelity: Fidelity) -> List[FigureSeries]:
    """Throughput, p99 and simulator event rate vs machine size.

    Runs are in-process and individually timed (the wall-clock series
    would be meaningless from a cached or pooled run), serially so the
    timings don't contend with each other.
    """
    node_counts = scaleout_node_counts(fidelity)
    throughput: List[float] = []
    p99: List[float] = []
    events_per_sec: List[float] = []
    for num_nodes in node_counts:
        simulation = Simulation(scaleout_config(fidelity, num_nodes))
        start = time.perf_counter()
        result = simulation.run()
        wall = time.perf_counter() - start
        throughput.append(result.throughput)
        p99.append(result.response_time_p99)
        events_per_sec.append(
            simulation.env.dispatch_count / wall if wall > 0 else 0.0
        )
    x_values = [float(count) for count in node_counts]
    figures = [
        FigureSeries(
            title="Scaleout: throughput vs machine size "
            "(fixed per-node load)",
            x_label="nodes",
            y_label="throughput (txn/s)",
            x_values=x_values,
        ),
        FigureSeries(
            title="Scaleout: p99 response time vs machine size",
            x_label="nodes",
            y_label="p99 response time (s)",
            x_values=x_values,
        ),
        FigureSeries(
            title="Scaleout: simulator event rate vs machine size "
            "(wall clock, non-deterministic)",
            x_label="nodes",
            y_label="events/s",
            x_values=x_values,
        ),
    ]
    for figure, values in zip(
        figures, (throughput, p99, events_per_sec)
    ):
        figure.add_curve("2pl", values)
    return figures
