"""Experiment §4.2: the impact of machine size and parallelism.

The workload (128 terminals, small 300-page partitions) is held fixed
while the machine grows from 1 to 4 to 8 processing nodes, with the
database repartitioned so transactions run 1-, 4-, or 8-way parallel.
Regenerates Figures 2-7 and the 4-node variant discussed in the text:

* Figure 2 — throughput vs think time, 1-node and 8-node systems.
* Figure 3 — response time vs think time, same systems.
* Figure 4 — 8-node/1-node throughput speedup vs think time.
* Figure 5 — 8-node/1-node response-time speedup vs think time.
* Figure 6 — disk utilizations underlying Figures 4-5.
* Figure 7 — CPU utilizations underlying Figures 4-5.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.series import FigureSeries
from repro.analysis.speedup import ratio_series
from repro.core.config import (
    PlacementKind,
    SimulationConfig,
    TransactionClassConfig,
    paper_default_config,
)
from repro.core.metrics import SimulationResult
from repro.experiments.fidelity import Fidelity
from repro.experiments.runner import run_many, sweep

__all__ = [
    "ALGORITHMS",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "scaling_config",
    "scaling_sweeps",
    "scaling_speedups_4node",
    "scaling_speedups_16node",
]

#: Figure legend order: the four CC algorithms plus the baseline.
ALGORITHMS = ("2pl", "bto", "ww", "opt", "no_dc")

SweepResults = Dict[Tuple[str, float], SimulationResult]


def scaling_config(
    fidelity: Fidelity,
    algorithm: str,
    think_time: float,
    num_nodes: int,
) -> SimulationConfig:
    """The §4.2 configuration for one (algorithm, load, size) point."""
    if num_nodes == 1:
        placement = PlacementKind.COLOCATED
        degree = 1
    else:
        placement = PlacementKind.DECLUSTERED
        degree = num_nodes
    config = paper_default_config(
        algorithm,
        think_time=think_time,
        num_proc_nodes=num_nodes,
        pages_per_partition=300,
        placement=placement,
        placement_degree=degree,
        seed=fidelity.seed,
    )
    return fidelity.apply(config)


def scaling_sweeps(
    fidelity: Fidelity, node_counts: Tuple[int, ...]
) -> List[SweepResults]:
    """Sweeps at several machine sizes, batched as one dispatch.

    The figure-pair functions below all need the same grid at two
    sizes; submitting the union to ``run_many`` in one call keeps the
    worker pool saturated across the size boundary instead of paying
    two fan-out barriers (the memo then serves the per-size slices).
    """
    grid = [
        (algorithm, think_time)
        for algorithm in ALGORITHMS
        for think_time in fidelity.think_times
    ]
    results = run_many(
        [
            scaling_config(fidelity, algorithm, think_time, num_nodes)
            for num_nodes in node_counts
            for algorithm, think_time in grid
        ]
    )
    return [
        dict(
            zip(
                grid,
                results[size * len(grid):(size + 1) * len(grid)],
            )
        )
        for size in range(len(node_counts))
    ]


def _metric_series(
    fidelity: Fidelity,
    results: SweepResults,
    metric: str,
    title: str,
    y_label: str,
) -> FigureSeries:
    series = FigureSeries(
        title=title,
        x_label="think(s)",
        y_label=y_label,
        x_values=list(fidelity.think_times),
    )
    for algorithm in ALGORITHMS:
        series.add_curve(
            algorithm,
            [
                getattr(results[(algorithm, tt)], metric)
                for tt in fidelity.think_times
            ],
        )
    return series


def figure2(fidelity: Fidelity) -> List[FigureSeries]:
    """Throughput vs think time, 1-node and 8-node systems."""
    one, eight = scaling_sweeps(fidelity, (1, 8))
    return [
        _metric_series(
            fidelity, one, "throughput",
            "Figure 2a: Throughput, 1-node system",
            "transactions/second",
        ),
        _metric_series(
            fidelity, eight, "throughput",
            "Figure 2b: Throughput, 8-node system",
            "transactions/second",
        ),
    ]


def figure3(fidelity: Fidelity) -> List[FigureSeries]:
    """Response time vs think time, 1-node and 8-node systems."""
    one, eight = scaling_sweeps(fidelity, (1, 8))
    return [
        _metric_series(
            fidelity, one, "mean_response_time",
            "Figure 3a: Response time, 1-node system",
            "seconds",
        ),
        _metric_series(
            fidelity, eight, "mean_response_time",
            "Figure 3b: Response time, 8-node system",
            "seconds",
        ),
    ]


def _speedup_series(
    fidelity: Fidelity,
    small: SweepResults,
    large: SweepResults,
    metric: str,
    invert: bool,
    title: str,
    y_label: str,
) -> FigureSeries:
    """Per-algorithm ratio of a metric between two machine sizes.

    ``invert=False`` computes large/small (throughput speedup);
    ``invert=True`` computes small/large (response-time speedup, since
    smaller response time is better).
    """
    series = FigureSeries(
        title=title,
        x_label="think(s)",
        y_label=y_label,
        x_values=list(fidelity.think_times),
    )
    for algorithm in ALGORITHMS:
        small_values = [
            getattr(small[(algorithm, tt)], metric)
            for tt in fidelity.think_times
        ]
        large_values = [
            getattr(large[(algorithm, tt)], metric)
            for tt in fidelity.think_times
        ]
        if invert:
            ratios = ratio_series(small_values, large_values)
        else:
            ratios = ratio_series(large_values, small_values)
        series.add_curve(algorithm, ratios)
    return series


def figure4(fidelity: Fidelity) -> List[FigureSeries]:
    """8-node/1-node throughput speedup vs think time."""
    one, eight = scaling_sweeps(fidelity, (1, 8))
    return [
        _speedup_series(
            fidelity, one, eight, "throughput", invert=False,
            title="Figure 4: Throughput speedup (8-node / 1-node)",
            y_label="speedup",
        )
    ]


def figure5(fidelity: Fidelity) -> List[FigureSeries]:
    """8-node/1-node response-time speedup vs think time."""
    one, eight = scaling_sweeps(fidelity, (1, 8))
    return [
        _speedup_series(
            fidelity, one, eight, "mean_response_time", invert=True,
            title="Figure 5: Response-time speedup (1-node rt / 8-node rt)",
            y_label="speedup",
        )
    ]


def figure6(fidelity: Fidelity) -> List[FigureSeries]:
    """Disk utilizations underlying the speedups."""
    one, eight = scaling_sweeps(fidelity, (1, 8))
    return [
        _metric_series(
            fidelity, one, "avg_disk_utilization",
            "Figure 6a: Disk utilization, 1-node system",
            "utilization",
        ),
        _metric_series(
            fidelity, eight, "avg_disk_utilization",
            "Figure 6b: Disk utilization, 8-node system",
            "utilization",
        ),
    ]


def figure7(fidelity: Fidelity) -> List[FigureSeries]:
    """CPU utilizations underlying the speedups."""
    one, eight = scaling_sweeps(fidelity, (1, 8))
    return [
        _metric_series(
            fidelity, one, "avg_node_cpu_utilization",
            "Figure 7a: CPU utilization, 1-node system",
            "utilization",
        ),
        _metric_series(
            fidelity, eight, "avg_node_cpu_utilization",
            "Figure 7b: CPU utilization, 8-node system",
            "utilization",
        ),
    ]


def _sixteen_node_config(
    fidelity: Fidelity,
    algorithm: str,
    think_time: float,
    num_nodes: int,
) -> SimulationConfig:
    """Footnote 7's larger machine: 16 partitions per relation.

    The paper's 16- and 32-node runs used "larger update transactions";
    with 16 partitions per relation a transaction reads all 16 (128
    reads on average), and the database grows to 128 files so that
    every node again hosts 8 partitions.
    """
    return scaling_config(
        fidelity, algorithm, think_time, num_nodes
    ).with_database(partitions_per_relation=16).with_workload(
        classes=(TransactionClassConfig(file_count=16),)
    )


def scaling_speedups_16node(fidelity: Fidelity) -> List[FigureSeries]:
    """Footnote 7: the 16-node machine with 128-read transactions.

    The paper reports only that "the trends were similar" to the
    8-node results; this regenerates the throughput and response-time
    speedups so that claim can be inspected.
    """
    one = sweep(
        ALGORITHMS,
        fidelity.think_times,
        lambda algorithm, tt: _sixteen_node_config(
            fidelity, algorithm, tt, 1
        ),
    )
    sixteen = sweep(
        ALGORITHMS,
        fidelity.think_times,
        lambda algorithm, tt: _sixteen_node_config(
            fidelity, algorithm, tt, 16
        ),
    )
    return [
        _speedup_series(
            fidelity, one, sixteen, "throughput", invert=False,
            title="Footnote 7: throughput speedup "
            "(16-node / 1-node, 128-read txns)",
            y_label="speedup",
        ),
        _speedup_series(
            fidelity, one, sixteen, "mean_response_time",
            invert=True,
            title="Footnote 7: response-time speedup (16-node)",
            y_label="speedup",
        ),
    ]


def scaling_speedups_4node(fidelity: Fidelity) -> List[FigureSeries]:
    """The §4.2 text's 4-node variant of Figures 4 and 5."""
    one, four = scaling_sweeps(fidelity, (1, 4))
    return [
        _speedup_series(
            fidelity, one, four, "throughput", invert=False,
            title="4-node variant: throughput speedup (4-node / 1-node)",
            y_label="speedup",
        ),
        _speedup_series(
            fidelity, one, four, "mean_response_time", invert=True,
            title="4-node variant: response-time speedup",
            y_label="speedup",
        ),
    ]
