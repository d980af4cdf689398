"""Metrics collection and the simulation result record (paper §4.1).

The paper's four main metrics are transaction response time (from
origination until *successful* completion, restarts included),
throughput (completion rate), and the response-time and throughput
speedups derived from them across configurations.  Auxiliary metrics:
CPU and disk utilizations, the average blocking time (for the locking
algorithms), and the *abort ratio* — transaction aborts divided by
transaction commits.

All statistics honour the warmup boundary: the simulation driver calls
:meth:`MetricsCollector.reset` when warmup ends, so results cover
steady state only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.stats import (
    BatchMeans,
    Counter,
    StreamingHistogram,
    Tally,
)

__all__ = ["MetricsCollector", "SimulationResult"]


class MetricsCollector:
    """Accumulates transaction-level statistics during a run."""

    def __init__(self, batch_size: int = 25):
        self.response_times = Tally()
        self.response_batches = BatchMeans(batch_size=batch_size)
        # Streaming percentile estimates: O(1) per commit, O(bins)
        # memory, no sort at report time.  The range covers the paper's
        # configurations (1-node saturation reaches ~100 s response
        # times); rarer longer observations clamp to the top edge
        # rather than disappearing.
        self.response_histogram = StreamingHistogram(
            low=0.0, high=300.0, num_bins=3000
        )
        self.commits = Counter()
        self.aborts = Counter()
        #: Abort counts broken down by reason (wound, local-deadlock,
        #: global-deadlock, timestamp-reject, certification-failed).
        self.abort_reasons: Dict[str, int] = {}
        self.blocking_times = Tally()
        #: Time spent blocked on a 2PC decision (coordinator resend
        #: waits and participant blocking detection; fault mode only).
        self.blocked_2pc_times = Tally()
        #: Commits recorded while at least one node was down.
        self.degraded_commits = Counter()
        #: Per routing-class statistics (router runs only; empty and
        #: cost-free otherwise).  Keyed by the router's class key.
        self.class_commits: Dict[str, int] = {}
        self.class_aborts: Dict[str, int] = {}
        self.class_response: Dict[str, Tally] = {}
        self.class_lock_waits: Dict[str, int] = {}
        #: class key -> {algorithm name -> commits routed there}.
        self.class_algorithms: Dict[str, Dict[str, int]] = {}
        self._measure_start = 0.0

    def record_commit(self, response_time: float) -> None:
        """One transaction completed successfully."""
        self.commits.increment()
        self.response_times.record(response_time)
        self.response_batches.record(response_time)
        self.response_histogram.record(response_time)

    def record_abort(self, reason: Optional[str] = None) -> None:
        """One transaction attempt aborted (it will restart)."""
        self.aborts.increment()
        key = reason or "unknown"
        self.abort_reasons[key] = self.abort_reasons.get(key, 0) + 1

    def record_blocking(self, duration: float) -> None:
        """One concurrency control wait ended after ``duration``."""
        self.blocking_times.record(duration)

    def record_blocked_2pc(self, duration: float) -> None:
        """One blocked-on-2PC span ended after ``duration``."""
        self.blocked_2pc_times.record(duration)

    def record_degraded_commit(self) -> None:
        """One commit completed while the machine was degraded."""
        self.degraded_commits.increment()

    def record_class_commit(
        self, class_key: str, algorithm: str, response_time: float
    ) -> None:
        """One routed transaction of ``class_key`` committed."""
        self.class_commits[class_key] = (
            self.class_commits.get(class_key, 0) + 1
        )
        tally = self.class_response.get(class_key)
        if tally is None:
            tally = self.class_response[class_key] = Tally()
        tally.record(response_time)
        arms = self.class_algorithms.setdefault(class_key, {})
        arms[algorithm] = arms.get(algorithm, 0) + 1

    def record_class_abort(self, class_key: str) -> None:
        """One routed attempt of ``class_key`` aborted."""
        self.class_aborts[class_key] = (
            self.class_aborts.get(class_key, 0) + 1
        )

    def record_class_blocking(self, class_key: str) -> None:
        """One routed cohort of ``class_key`` finished a lock wait."""
        self.class_lock_waits[class_key] = (
            self.class_lock_waits.get(class_key, 0) + 1
        )

    def reset(self, now: float) -> None:
        """Discard warmup observations."""
        self.response_times.reset()
        self.response_batches.reset()
        self.response_histogram.reset()
        self.commits.reset()
        self.aborts.reset()
        self.abort_reasons.clear()
        self.blocking_times.reset()
        self.blocked_2pc_times.reset()
        self.degraded_commits.reset()
        self.class_commits.clear()
        self.class_aborts.clear()
        self.class_response.clear()
        self.class_lock_waits.clear()
        self.class_algorithms.clear()
        self._measure_start = now

    def throughput(self, now: float) -> float:
        """Commits per second over the measurement window."""
        elapsed = now - self._measure_start
        if elapsed <= 0.0:
            return 0.0
        return self.commits.count / elapsed

    @property
    def abort_ratio(self) -> float:
        """Aborts per commit (the paper's abort ratio)."""
        if self.commits.count == 0:
            return 0.0
        return self.aborts.count / self.commits.count

    @property
    def failure_abort_ratio(self) -> float:
        """Fraction of all aborts caused by injected failures.

        Failure-induced abort reasons carry a ``fault-`` prefix
        (execution/prepare timeouts); everything else is ordinary
        data contention.
        """
        if self.aborts.count == 0:
            return 0.0
        failure_aborts = sum(
            count
            for reason, count in self.abort_reasons.items()
            if reason.startswith("fault-")
        )
        return failure_aborts / self.aborts.count


@dataclass
class SimulationResult:
    """Everything a single simulation run reports."""

    label: str
    cc_algorithm: str
    think_time: float
    num_proc_nodes: int
    placement_degree: int
    pages_per_partition: int
    seed: int
    measured_duration: float
    commits: int
    aborts: int
    throughput: float
    mean_response_time: float
    response_time_ci: Optional[float]
    abort_ratio: float
    mean_blocking_time: float
    blocking_count: int
    avg_node_cpu_utilization: float
    avg_disk_utilization: float
    host_cpu_utilization: float
    messages_sent: int
    per_node_cpu_utilization: List[float] = field(default_factory=list)
    per_node_disk_utilization: List[float] = field(default_factory=list)
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    #: Streaming response-time percentiles (histogram estimates).
    response_time_p50: float = 0.0
    response_time_p90: float = 0.0
    response_time_p99: float = 0.0
    #: Availability metrics (extension; all zero without fault
    #: injection so failure-free cache entries stay loadable).
    faults_enabled: bool = False
    node_crashes: int = 0
    commits_despite_faults: int = 0
    #: Commit rate over the degraded portion of the window only.
    availability_throughput: float = 0.0
    #: Fraction of aborts caused by injected failures.
    failure_abort_ratio: float = 0.0
    mean_blocked_2pc_time: float = 0.0
    blocked_2pc_count: int = 0
    messages_dropped: int = 0
    per_node_downtime: List[float] = field(default_factory=list)
    #: Per-class router metrics (extension; all empty outside router
    #: runs so pre-router cache entries stay loadable).  Deliberately
    #: not part of :meth:`as_dict` — the tabular report and the
    #: cross-run determinism comparisons stay algorithm-agnostic; the
    #: router experiment and tests read these fields directly.
    router_enabled: bool = False
    router_class_commits: Dict[str, int] = field(default_factory=dict)
    router_class_aborts: Dict[str, int] = field(default_factory=dict)
    router_class_mean_response: Dict[str, float] = field(
        default_factory=dict
    )
    router_class_lock_waits: Dict[str, int] = field(
        default_factory=dict
    )
    #: class key -> {algorithm -> commits the router sent there}.
    router_class_algorithms: Dict[str, Dict[str, int]] = field(
        default_factory=dict
    )

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for tabular reporting."""
        return {
            "label": self.label,
            "cc": self.cc_algorithm,
            "think_time": self.think_time,
            "nodes": self.num_proc_nodes,
            "degree": self.placement_degree,
            "file_size": self.pages_per_partition,
            "seed": self.seed,
            "duration": self.measured_duration,
            "commits": self.commits,
            "aborts": self.aborts,
            "throughput": self.throughput,
            "response_time": self.mean_response_time,
            "response_ci": self.response_time_ci,
            "response_p50": self.response_time_p50,
            "response_p90": self.response_time_p90,
            "response_p99": self.response_time_p99,
            "abort_ratio": self.abort_ratio,
            "blocking_time": self.mean_blocking_time,
            "cpu_util": self.avg_node_cpu_utilization,
            "disk_util": self.avg_disk_utilization,
            "host_cpu_util": self.host_cpu_utilization,
            "messages": self.messages_sent,
            "faults": self.faults_enabled,
            "node_crashes": self.node_crashes,
            "degraded_commits": self.commits_despite_faults,
            "availability_tput": self.availability_throughput,
            "failure_abort_ratio": self.failure_abort_ratio,
            "blocked_2pc_time": self.mean_blocked_2pc_time,
            "blocked_2pc_count": self.blocked_2pc_count,
            "messages_dropped": self.messages_dropped,
        }

    def __str__(self) -> str:
        return (
            f"{self.label}: tput={self.throughput:.3f}/s "
            f"rt={self.mean_response_time:.3f}s "
            f"abort_ratio={self.abort_ratio:.3f} "
            f"disk={self.avg_disk_utilization:.2f} "
            f"cpu={self.avg_node_cpu_utilization:.2f}"
        )
