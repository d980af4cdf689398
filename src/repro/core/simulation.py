"""Top-level simulation assembly and driver.

Wires together the database, nodes, network, concurrency control
managers, workload source, transaction manager, and metrics, then runs
warmup + measurement and packages a
:class:`~repro.core.metrics.SimulationResult`.

Typical use::

    from repro.core import run_simulation
    from repro.core.config import paper_default_config

    result = run_simulation(paper_default_config("2pl", think_time=8.0))
    print(result.throughput, result.mean_response_time)
"""

from __future__ import annotations

from typing import List

from repro.cc import make_algorithm
from repro.cc.base import CCContext, NodeCCManager
from repro.core.config import PlacementKind, SimulationConfig
from repro.core.database import Database
from repro.core.metrics import MetricsCollector, SimulationResult
from repro.core.network import HOST_NODE, NetworkManager
from repro.core.node import Node
from repro.core.resource_manager import ResourceManager
from repro.core.transaction_manager import TransactionManager
from repro.core.workload import Source
from repro.sim.kernel import Environment
from repro.sim.streams import RandomStreams

__all__ = ["Simulation", "run_simulation"]


class Simulation:
    """One fully wired simulation instance."""

    def __init__(self, config: SimulationConfig, auditor=None, tracer=None):
        config.validate()
        self.config = config
        self.auditor = auditor
        self.tracer = tracer
        self._measured_duration = config.duration
        self.env = Environment()
        self.streams = RandomStreams(config.seed)
        self.database = Database(
            config.database, config.num_proc_nodes
        )
        self.metrics = MetricsCollector()
        self.host = self._make_node(
            HOST_NODE, config.resources.host_cpu_mips
        )
        self._proc_resources = [
            self._make_resources(node, config.resources.node_cpu_mips)
            for node in range(config.num_proc_nodes)
        ]
        cpus = {HOST_NODE: self.host.resources.cpu}
        for node, resources in enumerate(self._proc_resources):
            cpus[node] = resources.cpu
        self.network = NetworkManager(
            self.env, cpus, config.resources.inst_per_msg
        )
        self.cc_algorithm = make_algorithm(config.cc_algorithm)
        # Late-bind config and streams before any node manager exists:
        # composite algorithms (the router) build their children here.
        self.cc_algorithm.bind(config, self.streams)
        self.source = Source(
            config.workload, self.database, self.streams
        )
        # The CC context needs the transaction manager's abort entry
        # point; break the cycle with a forwarding closure.
        self.cc_context = CCContext(
            self.env,
            request_abort=self._forward_abort,
            detection_interval=config.detection_interval,
        )
        self.node_cc_managers: List[NodeCCManager] = [
            self.cc_algorithm.make_node_manager(node, self.cc_context)
            for node in range(config.num_proc_nodes)
        ]
        self.proc_nodes = [
            Node(node, resources, manager)
            for node, (resources, manager) in enumerate(
                zip(self._proc_resources, self.node_cc_managers)
            )
        ]
        self.fault_injector = None
        if config.faults is not None:
            # Imported lazily: failure-free simulations never touch
            # the fault subsystem.
            from repro.faults.injectors import FaultInjector
            from repro.faults.schedule import FaultSchedule

            schedule = FaultSchedule(
                config.faults,
                self.streams,
                config.num_proc_nodes,
                horizon=config.warmup + config.max_duration,
            )
            self.fault_injector = FaultInjector(
                self.env,
                config.faults,
                schedule,
                self.network,
                self.proc_nodes,
                self.metrics,
            )
        self.transaction_manager = TransactionManager(
            self.env,
            config,
            self.host,
            self.proc_nodes,
            self.network,
            self.cc_algorithm,
            self.metrics,
            self.streams,
            self.source,
            auditor=auditor,
            tracer=tracer,
            fault_injector=self.fault_injector,
        )

    def _forward_abort(self, transaction, reason, from_node) -> None:
        self.transaction_manager.request_abort(
            transaction, reason, from_node
        )

    def _make_resources(
        self, node_id: int, mips: float
    ) -> ResourceManager:
        resources = self.config.resources
        return ResourceManager(
            self.env,
            node_id,
            mips,
            resources.disks_per_node,
            resources.min_disk_time,
            resources.max_disk_time,
            self.streams.get(f"disk-service-{node_id}", owner="resources"),
            self.streams.get(f"disk-choice-{node_id}", owner="resources"),
            resources.inst_per_update,
        )

    def _make_node(self, node_id: int, mips: float) -> Node:
        return Node(node_id, self._make_resources(node_id, mips))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run warmup + measurement; return the packaged result.

        With ``target_commits`` set, the measurement window is extended
        in ``duration``-sized chunks until enough commits have been
        observed (or ``max_duration`` is hit), so lightly loaded and
        long-response-time configurations get comparable statistics.
        """
        config = self.config
        self.transaction_manager.start()
        self.cc_algorithm.start_global(self)
        if self.fault_injector is not None:
            self.fault_injector.start()
        if config.warmup > 0.0:
            self.env.run(until=config.warmup)
            self._reset_statistics()
        measure_start = self.env.now
        self.env.run(until=measure_start + config.duration)
        while (
            config.target_commits > 0
            and self.metrics.commits.count < config.target_commits
            and self.env.now - measure_start + config.duration
            <= config.max_duration
        ):
            self.env.run(until=self.env.now + config.duration)
        self._measured_duration = self.env.now - measure_start
        self.env.check_crashes()
        if self.fault_injector is not None:
            self.fault_injector.assert_no_leaks()
        return self._build_result()

    def _reset_statistics(self) -> None:
        now = self.env.now
        self.metrics.reset(now)
        self.host.resources.reset_statistics(now)
        for resources in self._proc_resources:
            resources.reset_statistics(now)
        self.network.messages_sent.reset()
        self.network.messages_dropped.reset()
        if self.fault_injector is not None:
            self.fault_injector.crashes = 0

    def _build_result(self) -> SimulationResult:
        now = self.env.now
        config = self.config
        metrics = self.metrics
        cpu_utils = [
            resources.cpu_utilization(now)
            for resources in self._proc_resources
        ]
        disk_utils = [
            resources.disk_utilization(now)
            for resources in self._proc_resources
        ]
        if config.database.placement is PlacementKind.COLOCATED:
            degree = 1
        else:
            degree = config.database.placement_degree
        fault_fields = {}
        faults = self.fault_injector
        if faults is not None:
            measure_start = now - self._measured_duration
            degraded = faults.degraded_time_in_window(
                measure_start, now
            )
            degraded_commits = metrics.degraded_commits.count
            fault_fields = {
                "faults_enabled": True,
                "node_crashes": faults.crashes,
                "commits_despite_faults": degraded_commits,
                "availability_throughput": (
                    degraded_commits / degraded
                    if degraded > 0.0
                    else 0.0
                ),
                "failure_abort_ratio": metrics.failure_abort_ratio,
                "mean_blocked_2pc_time": (
                    metrics.blocked_2pc_times.mean
                ),
                "blocked_2pc_count": metrics.blocked_2pc_times.count,
                "messages_dropped": (
                    self.network.messages_dropped.count
                ),
                "per_node_downtime": faults.downtime_in_window(
                    measure_start, now
                ),
            }
        router_fields = {}
        if self.cc_algorithm.name == "router":
            router_fields = {
                "router_enabled": True,
                "router_class_commits": dict(
                    sorted(metrics.class_commits.items())
                ),
                "router_class_aborts": dict(
                    sorted(metrics.class_aborts.items())
                ),
                "router_class_mean_response": {
                    key: tally.mean
                    for key, tally in sorted(
                        metrics.class_response.items()
                    )
                },
                "router_class_lock_waits": dict(
                    sorted(metrics.class_lock_waits.items())
                ),
                "router_class_algorithms": {
                    key: dict(sorted(arms.items()))
                    for key, arms in sorted(
                        metrics.class_algorithms.items()
                    )
                },
            }
        return SimulationResult(
            label=config.label(),
            cc_algorithm=self.cc_algorithm.name,
            think_time=config.workload.think_time,
            num_proc_nodes=config.num_proc_nodes,
            placement_degree=degree,
            pages_per_partition=config.database.pages_per_partition,
            seed=config.seed,
            measured_duration=self._measured_duration,
            commits=metrics.commits.count,
            aborts=metrics.aborts.count,
            throughput=metrics.throughput(now),
            mean_response_time=metrics.response_times.mean,
            response_time_ci=metrics.response_batches.half_width(),
            response_time_p50=metrics.response_histogram.percentile(0.50),
            response_time_p90=metrics.response_histogram.percentile(0.90),
            response_time_p99=metrics.response_histogram.percentile(0.99),
            abort_ratio=metrics.abort_ratio,
            mean_blocking_time=metrics.blocking_times.mean,
            blocking_count=metrics.blocking_times.count,
            avg_node_cpu_utilization=(
                sum(cpu_utils) / len(cpu_utils) if cpu_utils else 0.0
            ),
            avg_disk_utilization=(
                sum(disk_utils) / len(disk_utils)
                if disk_utils
                else 0.0
            ),
            host_cpu_utilization=self.host.resources.cpu_utilization(
                now
            ),
            messages_sent=self.network.messages_sent.count,
            per_node_cpu_utilization=cpu_utils,
            per_node_disk_utilization=disk_utils,
            abort_reasons=dict(metrics.abort_reasons),
            **fault_fields,
            **router_fields,
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Build and run a simulation in one call."""
    return Simulation(config).run()
