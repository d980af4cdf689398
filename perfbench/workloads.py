"""The benchmark's workloads, as generated simulator configurations.

Inside every workload the modelled system is a closed loop: a fixed
population of terminals, each submitting its next transaction only
after the previous one commits and a think time passes.  Every
configuration is built from the workload seed alone and runs a fixed
simulated horizon (no commit target), so the simulated work per run
depends on the seed only through the model's own randomness.

``bench`` is the measured length; ``smoke`` is the same configuration
shape over a short horizon, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.config import SimulationConfig
from repro.experiments.fidelity import Fidelity
from repro.experiments.router import mixed_config
from repro.experiments.scaleout import scaleout_config
from repro.experiments.scaling import ALGORITHMS, scaling_config

#: Worker processes for ``fig-sweep`` (the only workload with a pool).
SWEEP_JOBS = 2

#: Figure 4's saturated column.  At the lighter loads of the figure's
#: think-time grid a point commits only tens of transactions in a
#: short window, so its event count (and host time) swings by 15-20 %
#: from seed to seed; at think 0 it moves by about 1 %.
FIG_SWEEP_THINK_TIMES = (0.0,)


@dataclass(frozen=True)
class Workload:
    """One named workload: why it exists and how to build its points."""

    name: str
    why: str
    build: Callable[[Fidelity], List[SimulationConfig]]
    #: length -> (warmup, measured duration), in simulated seconds.
    horizons: Dict[str, Tuple[float, float]]
    #: Run the points through the sweep executor's worker pool.
    sweep: bool = False

    def configs(self, seed: int, length: str) -> List[SimulationConfig]:
        """The points of one run, generated from ``seed``."""
        warmup, duration = self.horizons[length]
        fidelity = Fidelity(
            name=f"perfbench-{length}",
            duration=duration,
            warmup=warmup,
            target_commits=0,
            max_duration=duration,
            think_times=FIG_SWEEP_THINK_TIMES,
            seed=seed,
        )
        return self.build(fidelity)


def _fig_sweep(fidelity: Fidelity) -> List[SimulationConfig]:
    return [
        scaling_config(fidelity, algorithm, think, nodes)
        for nodes in (1, 8)
        for algorithm in ALGORITHMS
        for think in fidelity.think_times
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-saturated",
            why="the paper's 8-node 8-way 2PL point at think 0: heavy "
            "lock contention, few pending events; stresses kernel "
            "dispatch, resources and cc",
            build=lambda f: [scaling_config(f, "2pl", 0.0, 8)],
            horizons={"bench": (5.0, 30.0), "smoke": (5.0, 10.0)},
        ),
        Workload(
            name="scaleout-256",
            why="256 nodes, 25,600 terminals at think 360 s: ~25k "
            "pending events and little contention; stresses scheduler, "
            "workload and memory",
            build=lambda f: [scaleout_config(f, 256)],
            horizons={"bench": (2.0, 8.0), "smoke": (1.0, 1.0)},
        ),
        Workload(
            name="router-mixed",
            why="the router's mixed blend at think 0: MVCC snapshot "
            "scans beside hot-key BTO/OPT/2PL updates; covers router "
            "dispatch, version chains and Zipf draws",
            build=lambda f: [mixed_config(f, "router", 0.0)],
            horizons={"bench": (5.0, 20.0), "smoke": (3.0, 5.0)},
        ),
        Workload(
            name="fig-sweep",
            why="Figure 4's think-0 column (5 algorithms x 1 and 8 nodes) "
            "through run_many with a cold 2-worker pool and the result "
            "cache off; the only workload that measures the executor",
            build=_fig_sweep,
            horizons={"bench": (5.0, 20.0), "smoke": (5.0, 10.0)},
            sweep=True,
        ),
    )
}
