"""Configuration dataclasses mirroring the paper's Tables 1–4.

Defaults reproduce Table 4, with one reading of it (the write
probability, below):

* 1 host node (10 MIPS) and 8 processing nodes (1 MIPS each),
* 64 files = 8 relations x 8 partitions, 300 pages per partition,
* 128 terminals attached to the host, in 8 groups of 16 with each group
  bound to one relation,
* transactions read an average of 8 pages per partition (uniform 4..12),
  updating each read page with probability 1/8 (Table 4 prints 1/4;
  :class:`TransactionClassConfig` explains why the default is 1/8),
* 8K instructions per page processed, 2K per initiated disk write,
* 2K instructions per process startup, 1K per message end,
  negligible CC request cost,
* 2 disks per node with access times uniform in [10 ms, 30 ms],
* global deadlock detection ("Snoop") interval of 1 second.

Times are in seconds, CPU rates in MIPS, CPU costs in instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence, Tuple

from repro.faults.schedule import FaultConfig

__all__ = [
    "DatabaseConfig",
    "ExecutionPattern",
    "PlacementKind",
    "ResourceConfig",
    "RouterConfig",
    "SimulationConfig",
    "TransactionClassConfig",
    "WorkloadConfig",
]


class ExecutionPattern(Enum):
    """ExecPattern: how a multi-cohort transaction runs (§3.3).

    Sequential cohorts model Non-Stop SQL style remote procedure calls;
    parallel cohorts model Gamma/Bubba/Teradata style parallel queries.
    """

    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


class PlacementKind(Enum):
    """How relations' partitions are mapped to processing nodes (§4.2-4.3).

    ``DECLUSTERED`` spreads each relation's partitions over ``degree``
    nodes (the paper's 2/4/8-way partitioning, with the relation's home
    node rotated so load stays balanced).  ``COLOCATED`` stores all of a
    relation's partitions at a single node (the paper's 1-way placement,
    relation i at node i mod N).
    """

    DECLUSTERED = "declustered"
    COLOCATED = "colocated"


@dataclass(frozen=True)
class ResourceConfig:
    """Table 3: resource manager parameters (shared by all nodes)."""

    host_cpu_mips: float = 10.0
    node_cpu_mips: float = 1.0
    disks_per_node: int = 2
    min_disk_time: float = 0.010
    max_disk_time: float = 0.030
    inst_per_update: float = 2_000.0
    inst_per_startup: float = 2_000.0
    inst_per_msg: float = 1_000.0

    def validate(self) -> None:
        """Raise ValueError on out-of-range settings."""
        if self.host_cpu_mips <= 0 or self.node_cpu_mips <= 0:
            raise ValueError("CPU rates must be positive")
        if self.disks_per_node < 1:
            raise ValueError("each node needs at least one disk")
        if not 0 <= self.min_disk_time <= self.max_disk_time:
            raise ValueError("disk time range invalid")
        for name in ("inst_per_update", "inst_per_startup", "inst_per_msg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class DatabaseConfig:
    """Table 1: database model parameters.

    ``placement_degree`` is the paper's degree of partitioning: how many
    nodes each relation is spread across.  Degree 1 with
    ``PlacementKind.COLOCATED`` gives the paper's "1-way" placement.
    """

    num_relations: int = 8
    partitions_per_relation: int = 8
    pages_per_partition: int = 300
    placement: PlacementKind = PlacementKind.DECLUSTERED
    placement_degree: int = 8
    #: Replication factor (extension; the paper's §3.1 model supports
    #: replicated files but its experiments use copies=1).  With k > 1
    #: copies, every partition lives at k distinct nodes; transactions
    #: read one copy and write all copies (read-one/write-all).
    copies: int = 1

    def validate(self, num_proc_nodes: int) -> None:
        """Raise ValueError if the placement cannot be realized."""
        if self.num_relations < 1 or self.partitions_per_relation < 1:
            raise ValueError("relations and partitions must be positive")
        if self.pages_per_partition < 1:
            raise ValueError("pages_per_partition must be positive")
        if self.copies < 1:
            raise ValueError("copies must be positive")
        if self.copies > num_proc_nodes:
            raise ValueError(
                f"cannot store {self.copies} copies on "
                f"{num_proc_nodes} nodes"
            )
        if self.placement is PlacementKind.DECLUSTERED:
            if self.placement_degree < 1:
                raise ValueError("placement_degree must be positive")
            if self.placement_degree > num_proc_nodes:
                raise ValueError(
                    f"cannot spread a relation over "
                    f"{self.placement_degree} of {num_proc_nodes} nodes"
                )
            if self.partitions_per_relation % self.placement_degree:
                raise ValueError(
                    "placement_degree must divide partitions_per_relation"
                )

    @property
    def num_files(self) -> int:
        """NumFiles: total partitions in the database."""
        return self.num_relations * self.partitions_per_relation

    @property
    def total_pages(self) -> int:
        """Total database size in pages."""
        return self.num_files * self.pages_per_partition


@dataclass(frozen=True)
class TransactionClassConfig:
    """Table 2 per-class parameters.

    A transaction of this class touches ``file_count`` partitions of its
    terminal's relation (the paper's workload touches all 8), reading an
    average of ``pages_per_file`` pages from each — actual counts drawn
    uniformly from [pages_per_file/2, 3*pages_per_file/2], i.e. 4..12 for
    the default 8 (footnote 12 of the paper) — and updating each read
    page with probability ``write_probability``.

    The default write probability is 1/8, not Table 4's 1/4.  The paper
    contradicts itself: Table 4 and §4.1 say pages are updated with
    probability 1/4, but the very same paragraph states transactions
    "involve an average of 64 reads, and they do an average of 8
    writes" — which is 64 x 1/8.  We follow the 8-writes reading
    because it also reproduces the paper's qualitative results (abort
    ratios ordered OPT > WW > BTO > 2PL, and 2PL gaining the most from
    parallelism); with 1/4 the deadlock/abort rates roughly quadruple
    and those orderings invert.  EXPERIMENTS.md shows both settings.
    """

    name: str = "default"
    terminal_fraction: float = 1.0
    execution_pattern: ExecutionPattern = ExecutionPattern.PARALLEL
    file_count: int = 8
    pages_per_file: int = 8
    write_probability: float = 0.125
    inst_per_page: float = 8_000.0
    #: Zipf skew parameter (theta) for page selection within a
    #: partition (extension; ROADMAP item 3).  0.0 keeps the paper's
    #: uniform draw — bit-identical to the original path, consuming no
    #: extra stream draws.  Positive values draw page indices from a
    #: Zipf(theta) distribution over the partition's pages via the
    #: dedicated ``page-skew`` stream, making low page indices hot.
    access_skew: float = 0.0

    def validate(self) -> None:
        """Raise ValueError on out-of-range settings."""
        if not 0.0 < self.terminal_fraction <= 1.0:
            raise ValueError("terminal_fraction must be in (0, 1]")
        if self.file_count < 1 or self.pages_per_file < 1:
            raise ValueError("file_count and pages_per_file positive")
        if not 0.0 <= self.write_probability <= 1.0:
            raise ValueError("write_probability must be in [0, 1]")
        if self.inst_per_page < 0:
            raise ValueError("inst_per_page must be non-negative")
        if self.access_skew < 0.0:
            raise ValueError("access_skew must be non-negative")

    @property
    def min_pages_per_file(self) -> int:
        """Lower bound of the uniform page-count draw (half the mean)."""
        return max(1, self.pages_per_file // 2)

    @property
    def max_pages_per_file(self) -> int:
        """Upper bound of the uniform page-count draw (1.5x the mean).

        Footnote 12 pins the range for the default workload to [4, 12]
        ("they actually access between 4 and 12 pages per partition"),
        which the expected-speedup arithmetic 64/12 = 5.33 relies on.
        """
        return (3 * self.pages_per_file) // 2


@dataclass(frozen=True)
class RouterConfig:
    """Predictive transaction router settings (extension; see
    :mod:`repro.router`).

    Used when ``cc_algorithm`` is ``"router"``: the host classifies
    each incoming transaction by its declared access specification and
    dispatches it to one of several concurrently running concurrency
    control algorithms.  Declared read-only transactions always run
    under ``read_only_algorithm`` (MVCC snapshot reads by default);
    update classes are assigned by a deterministic epsilon-greedy
    reward tracker choosing among ``update_candidates``.
    """

    #: Algorithm for declared read-only transactions.
    read_only_algorithm: str = "mvcc"
    #: Candidate algorithms the classifier arbitrates for update
    #: classes (per-class reward tracking of commit latency and abort
    #: ratio picks among them).  MVCC is itself a candidate: under
    #: light contention snapshot writers are the cheapest arm, and the
    #: bandit only steers hot classes away from first-committer-wins
    #: aborts when contention makes them expensive.
    update_candidates: Tuple[str, ...] = ("2pl", "bto", "opt", "mvcc")
    #: Exploration rate of the epsilon-greedy classifier; draws come
    #: from the dedicated ``router-explore``/``router-choice`` streams.
    epsilon: float = 0.05
    #: Minimum completed transactions per (class, candidate) arm before
    #: the classifier trusts its reward estimate over round-robin.
    min_samples: int = 2
    #: Weight of the abort ratio in the per-arm cost
    #: ``mean_latency * (1 + abort_penalty * abort_ratio)``.
    abort_penalty: float = 1.0
    #: Fraction of each partition's lowest page indices considered the
    #: "hot set" by the feature extractor (matches the Zipf option's
    #: low-index-hot convention).
    hot_page_fraction: float = 0.125
    #: A transaction is "hot" when at least this fraction of its
    #: accesses fall in the hot set.
    hot_access_threshold: float = 0.5
    #: Read-set size (pages) above which a transaction is "large".
    large_read_set: int = 16

    def validate(self) -> None:
        """Raise ValueError on out-of-range settings."""
        if not self.read_only_algorithm:
            raise ValueError("read_only_algorithm must be named")
        if not self.update_candidates:
            raise ValueError("need at least one update candidate")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.min_samples < 0:
            raise ValueError("min_samples must be non-negative")
        if self.abort_penalty < 0.0:
            raise ValueError("abort_penalty must be non-negative")
        if not 0.0 < self.hot_page_fraction <= 1.0:
            raise ValueError("hot_page_fraction must be in (0, 1]")
        if not 0.0 <= self.hot_access_threshold <= 1.0:
            raise ValueError("hot_access_threshold must be in [0, 1]")
        if self.large_read_set < 1:
            raise ValueError("large_read_set must be positive")


@dataclass(frozen=True)
class WorkloadConfig:
    """Table 2: workload parameters for the (single) host node."""

    num_terminals: int = 128
    think_time: float = 0.0
    classes: Sequence[TransactionClassConfig] = field(
        default_factory=lambda: (TransactionClassConfig(),)
    )
    #: Restart delay before the first response-time observation exists.
    initial_restart_delay: float = 1.0

    def validate(self) -> None:
        """Raise ValueError on out-of-range settings."""
        if self.num_terminals < 1:
            raise ValueError("need at least one terminal")
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")
        if not self.classes:
            raise ValueError("need at least one transaction class")
        total = sum(cls.terminal_fraction for cls in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"class terminal fractions must sum to 1, got {total}"
            )
        for cls in self.classes:
            cls.validate()


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level simulation settings (Tables 1-4 plus run control)."""

    num_proc_nodes: int = 8
    resources: ResourceConfig = field(default_factory=ResourceConfig)
    database: DatabaseConfig = field(default_factory=DatabaseConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Concurrency control algorithm name, resolved via repro.cc.registry.
    cc_algorithm: str = "2pl"
    #: Table 4: InstPerCCReq — CPU cost of a CC read/write request.
    inst_per_cc_request: float = 0.0
    #: Table 4: DetectionInterval for the rotating Snoop detector (2PL).
    detection_interval: float = 1.0
    #: Run control: measurement horizon after warmup, both in seconds.
    duration: float = 300.0
    warmup: float = 30.0
    #: When positive, keep extending the run (in ``duration``-sized
    #: chunks) until this many commits are measured or
    #: ``max_duration`` is reached.  Heavily loaded small machines have
    #: response times of minutes, so a fixed window can truncate to a
    #: fraction of one multiprogramming "wave"; targeting a commit
    #: count equalizes statistical quality across configurations.
    target_commits: int = 0
    max_duration: float = 3_600.0
    seed: int = 42
    #: Fault injection (extension; see ``repro.faults``).  ``None``
    #: keeps the simulator failure-free and bit-identical to the
    #: verified paper configurations.
    faults: Optional[FaultConfig] = None
    #: Predictive router settings (extension; see ``repro.router``).
    #: Only consulted when ``cc_algorithm`` is ``"router"``; ``None``
    #: means the router's defaults.  Like ``faults``, an absent value
    #: hashes identically to a config predating the subsystem.
    router: Optional[RouterConfig] = None

    def validate(self) -> None:
        """Validate the whole configuration tree."""
        if self.num_proc_nodes < 1:
            raise ValueError("need at least one processing node")
        if self.duration <= 0 or self.warmup < 0:
            raise ValueError("duration positive, warmup non-negative")
        if self.target_commits < 0:
            raise ValueError("target_commits must be non-negative")
        if self.max_duration < self.duration:
            raise ValueError("max_duration must be >= duration")
        if self.inst_per_cc_request < 0:
            raise ValueError("inst_per_cc_request must be non-negative")
        if self.detection_interval <= 0:
            raise ValueError("detection_interval must be positive")
        self.resources.validate()
        self.database.validate(self.num_proc_nodes)
        self.workload.validate()
        if self.faults is not None:
            self.faults.validate()
        if self.router is not None:
            self.router.validate()

    def with_(self, **changes) -> "SimulationConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **changes)

    def with_workload(self, **changes) -> "SimulationConfig":
        """Return a copy with workload fields replaced."""
        return replace(self, workload=replace(self.workload, **changes))

    def with_database(self, **changes) -> "SimulationConfig":
        """Return a copy with database fields replaced."""
        return replace(self, database=replace(self.database, **changes))

    def with_resources(self, **changes) -> "SimulationConfig":
        """Return a copy with resource fields replaced."""
        return replace(self, resources=replace(self.resources, **changes))

    def label(self) -> str:
        """Short human-readable summary used in reports."""
        db = self.database
        return (
            f"{self.cc_algorithm} nodes={self.num_proc_nodes} "
            f"degree={db.placement_degree if db.placement is PlacementKind.DECLUSTERED else 1} "
            f"file_size={db.pages_per_partition} "
            f"think={self.workload.think_time:g}s"
        )


def paper_default_config(
    cc_algorithm: str = "2pl",
    think_time: float = 0.0,
    num_proc_nodes: int = 8,
    pages_per_partition: int = 300,
    placement: PlacementKind = PlacementKind.DECLUSTERED,
    placement_degree: Optional[int] = None,
    seed: int = 42,
) -> SimulationConfig:
    """Build a Table 4 configuration with the common experiment knobs."""
    if placement_degree is None:
        placement_degree = (
            num_proc_nodes if placement is PlacementKind.DECLUSTERED else 1
        )
    return SimulationConfig(
        num_proc_nodes=num_proc_nodes,
        database=DatabaseConfig(
            pages_per_partition=pages_per_partition,
            placement=placement,
            placement_degree=placement_degree,
        ),
        workload=WorkloadConfig(think_time=think_time),
        cc_algorithm=cc_algorithm,
        seed=seed,
    )
