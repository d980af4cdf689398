"""Runtime fault injection: applying a schedule to a live simulation.

The :class:`FaultInjector` owns the dynamic failure state of the
machine — which nodes are currently down, which cohort processes are
resident where, how much downtime each node has accumulated — and
applies the crash/recover timeline of a
:class:`~repro.faults.schedule.FaultSchedule`:

* **Crash** (fail-stop): the node's down flag is raised (so the
  network drops every subsequent message to or from it), every
  in-flight courier touching the node is discarded, every resident
  cohort process is interrupted in registration order (deterministic),
  and the node's concurrency control manager loses its volatile state
  via :meth:`~repro.cc.base.NodeCCManager.crash_reset`.
* **Recover**: the down flag clears and the outage interval is
  recorded.  Committed data survives (recovery is modelled as an
  instantaneous REDO from the log); the CC manager restarts cold.

Everything here is driven by pre-scheduled kernel callbacks and the
deterministic message coins of the schedule, so faulty runs replay
bit-identically.  The injector is only constructed when
``SimulationConfig.faults`` is set; failure-free simulations never
touch this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.schedule import CRASH, FaultConfig, FaultSchedule
from repro.sim.kernel import SimulationError

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a fault schedule to one wired simulation."""

    def __init__(
        self,
        env,
        config: FaultConfig,
        schedule: FaultSchedule,
        network,
        proc_nodes,
        metrics,
    ):
        self.env = env
        self.config = config
        self.schedule = schedule
        self.network = network
        self.proc_nodes = proc_nodes
        self.metrics = metrics
        self.num_nodes = len(proc_nodes)
        self.crashes = 0
        self._down = [False] * self.num_nodes
        self._down_count = 0
        self._down_since: List[Optional[float]] = (
            [None] * self.num_nodes
        )
        #: Closed per-node outage intervals, in completion order.
        self._intervals: List[List[Tuple[float, float]]] = [
            [] for _ in range(self.num_nodes)
        ]
        #: Closed intervals during which >= 1 node was down.
        self._degraded_intervals: List[Tuple[float, float]] = []
        self._degraded_since: Optional[float] = None
        #: Per-node resident cohorts, insertion-ordered so a crash
        #: interrupts them in a deterministic order.
        self._resident: List[Dict[object, None]] = [
            {} for _ in range(self.num_nodes)
        ]
        network.attach_faults(self)

    def start(self) -> None:
        """Schedule the materialised crash/recover timeline."""
        now = self.env.now
        for event in self.schedule.events:
            if event.node >= self.num_nodes or event.time < now:
                continue
            self.env.schedule(event.time - now, self._apply, event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def node_down(self, node: int) -> bool:
        """Whether ``node`` is currently crashed (host is never down)."""
        return 0 <= node < self.num_nodes and self._down[node]

    @property
    def degraded(self) -> bool:
        """Whether at least one node is currently down."""
        return self._down_count > 0

    # ------------------------------------------------------------------
    # Resident-cohort registry
    # ------------------------------------------------------------------

    def register_resident(self, cohort) -> None:
        """Track a cohort now running at its node."""
        self._resident[cohort.node][cohort] = None

    def forget_resident(self, cohort) -> None:
        """Stop tracking a cohort whose process has finished."""
        self._resident[cohort.node].pop(cohort, None)

    # ------------------------------------------------------------------
    # Timeline application
    # ------------------------------------------------------------------

    def _apply(self, event) -> None:
        if event.kind == CRASH:
            self._crash(event.node)
        else:
            self._recover(event.node)

    def _crash(self, node: int) -> None:
        if self._down[node]:
            return  # overlapping explicit/drawn outages merge
        now = self.env.now
        self._down[node] = True
        self._down_since[node] = now
        if self._down_count == 0:
            self._degraded_since = now
        self._down_count += 1
        self.crashes += 1
        # Messages already on the wire to or from the node are lost;
        # the down flag handles everything posted from here on.
        self.network.kill_inflight(node)
        residents = list(self._resident[node])
        self._resident[node].clear()
        for cohort in residents:
            cohort.crashed = True
            process = cohort.process
            if process is not None and process.alive:
                process.interrupt("node-crash")
        # Volatile CC state (lock tables, timestamp tables, pending
        # certifications) does not survive fail-stop.
        self.proc_nodes[node].cc_manager.crash_reset()

    def _recover(self, node: int) -> None:
        if not self._down[node]:
            return
        now = self.env.now
        self._down[node] = False
        started = self._down_since[node]
        self._down_since[node] = None
        self._intervals[node].append((started, now))
        self._down_count -= 1
        if self._down_count == 0:
            self._degraded_intervals.append(
                (self._degraded_since, now)
            )
            self._degraded_since = None

    # ------------------------------------------------------------------
    # Availability accounting
    # ------------------------------------------------------------------

    @staticmethod
    def _overlap(
        intervals, open_since: Optional[float],
        start: float, end: float,
    ) -> float:
        total = 0.0
        for left, right in intervals:
            total += max(0.0, min(right, end) - max(left, start))
        if open_since is not None:
            total += max(0.0, end - max(open_since, start))
        return total

    def downtime_in_window(
        self, start: float, end: float
    ) -> List[float]:
        """Per-node downtime overlapping ``[start, end]``."""
        return [
            self._overlap(
                self._intervals[node], self._down_since[node],
                start, end,
            )
            for node in range(self.num_nodes)
        ]

    def degraded_time_in_window(
        self, start: float, end: float
    ) -> float:
        """Time in ``[start, end]`` with at least one node down."""
        return self._overlap(
            self._degraded_intervals, self._degraded_since, start, end
        )

    # ------------------------------------------------------------------
    # End-of-run invariants
    # ------------------------------------------------------------------

    def assert_no_leaks(self) -> None:
        """No process or message may be stranded on a dead node.

        A crash interrupts every resident cohort and discards the
        node's in-flight messages, and the down flag keeps new work
        away until recovery; if anything alive still references a
        currently-down node at simulation end, that machinery failed
        and the process would have blocked forever.  The error names
        the stranded cohort processes, node by node, then the
        stranded couriers.
        """
        stranded = []
        for node in range(self.num_nodes):
            if self._down[node]:
                for cohort in self._resident[node]:
                    process = cohort.process
                    if process is not None and process.alive:
                        stranded.append(process.name)
        node_down = self.node_down
        for courier in self.network._inflight or ():
            if node_down(courier.source) or node_down(courier.destination):
                stranded.append(courier.name)
        if stranded:
            raise SimulationError(
                "stranded on crashed nodes at simulation end: "
                + ", ".join(stranded)
            )
