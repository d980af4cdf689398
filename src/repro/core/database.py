"""The database model (paper §3.1, Table 1).

The database is a collection of *files*, each file representing one
horizontal partition of a relation.  Files are modeled at the page
level; a page is identified by ``(relation, partition, page_index)``.
The placement maps every partition to a processing node; rotation by
relation index keeps the node loads balanced for every degree of
partitioning, mirroring the placements spelled out in §4.2-§4.4:

* degree 1 ("1-way", COLOCATED): all partitions of relation *i* live at
  node *i mod N* — transactions on that relation run with one cohort.
* degree *d* (DECLUSTERED): relation *i*'s partitions are split into *d*
  equal groups stored on *d* consecutive nodes starting at node
  *i mod N* — transactions run with *d* parallel cohorts.

For the default 8 relations x 8 partitions on 8 nodes, every node hosts
exactly 8 partitions for every degree, so aggregate load is identical
across placements and only the *parallelism* changes — exactly the
controlled comparison the paper performs.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, NamedTuple, Tuple

from repro.core.config import DatabaseConfig, PlacementKind

__all__ = ["Database", "PageId", "PageVersionStore", "PartitionId"]


class PartitionId(NamedTuple):
    """Identifies one file (= one partition of one relation)."""

    relation: int
    partition: int


class PageId(NamedTuple):
    """Identifies one page within a partition.

    A tuple, so hashing, equality and the ``(relation, partition,
    page)`` ordering run in C on every lock-table, placement and
    version-store lookup.
    """

    relation: int
    partition: int
    page: int

    @property
    def partition_id(self) -> PartitionId:
        """The partition this page belongs to."""
        return PartitionId(self.relation, self.partition)


class PageVersionStore:
    """Per-page chains of committed version timestamps (MVCC extension).

    The paper's database is versionless — a page simply *is* its latest
    committed state.  Multi-version concurrency control needs one more
    piece of bookkeeping at each node: for every page, the commit
    timestamps of its installed versions, in ascending order, so a
    snapshot read at timestamp *s* resolves to the newest version
    ≤ *s* and a write-write validation can ask whether anything
    committed after *s*.  Only timestamps are stored — page *contents*
    are not modeled, matching the rest of the database layer.

    Chains are bounded at ``max_versions`` entries; installing beyond
    that drops the oldest.  Snapshots in this simulator live for at
    most one transaction attempt, far shorter than the horizon eight
    versions cover, so pruning never invalidates a live reader.
    """

    def __init__(self, max_versions: int = 8):
        self.max_versions = max_versions
        self._chains: Dict[PageId, List[Tuple[float, int]]] = {}

    def install(self, page: PageId, stamp: Tuple[float, int]) -> None:
        """Append a committed version (commits may arrive out of order)."""
        chain = self._chains.get(page)
        if chain is None:
            self._chains[page] = [stamp]
            return
        insort(chain, stamp)
        if len(chain) > self.max_versions:
            del chain[0]

    def latest(self, page: PageId) -> Tuple[float, int]:
        """Newest committed version timestamp (zero stamp if none)."""
        chain = self._chains.get(page)
        if not chain:
            return (-1.0, -1)
        return chain[-1]

    def versions(self, page: PageId) -> Tuple[Tuple[float, int], ...]:
        """All retained version timestamps, ascending."""
        return tuple(self._chains.get(page, ()))

    def clear(self) -> None:
        """Wipe every chain (fail-stop crash of the hosting node)."""
        self._chains = {}

    def __len__(self) -> int:
        return len(self._chains)


class Database:
    """Materialized placement of partitions onto processing nodes.

    With replication (``copies`` > 1) every partition has one *primary*
    copy placed as described above, and each further copy shifted by
    ``N // copies`` nodes so that copies land on distinct nodes and the
    per-node load stays balanced.  ``node_of``/``node_of_page`` return
    the primary; ``nodes_of_partition`` lists all copy sites.
    """

    def __init__(self, config: DatabaseConfig, num_proc_nodes: int):
        config.validate(num_proc_nodes)
        self.config = config
        self.num_proc_nodes = num_proc_nodes
        self._partition_nodes: Dict[PartitionId, Tuple[int, ...]] = {}
        self._node_partitions: List[List[PartitionId]] = [
            [] for _ in range(num_proc_nodes)
        ]
        self._place_partitions()

    def _copy_stride(self) -> int:
        return max(1, self.num_proc_nodes // self.config.copies)

    def _place_partitions(self) -> None:
        cfg = self.config
        if cfg.placement is PlacementKind.COLOCATED:
            degree = 1
        else:
            degree = cfg.placement_degree
        group_size = cfg.partitions_per_relation // degree
        stride = self._copy_stride()
        for relation in range(cfg.num_relations):
            home = relation % self.num_proc_nodes
            for partition in range(cfg.partitions_per_relation):
                offset = partition // group_size
                primary = (home + offset) % self.num_proc_nodes
                nodes = tuple(
                    (primary + copy * stride) % self.num_proc_nodes
                    for copy in range(cfg.copies)
                )
                if len(set(nodes)) != len(nodes):
                    raise ValueError(
                        f"copy placement collides: {cfg.copies} "
                        f"copies on {self.num_proc_nodes} nodes"
                    )
                pid = PartitionId(relation, partition)
                self._partition_nodes[pid] = nodes
                for node in nodes:
                    self._node_partitions[node].append(pid)

    def node_of(self, partition: PartitionId) -> int:
        """FileLocations: the *primary* node storing ``partition``."""
        return self._partition_nodes[partition][0]

    def nodes_of_partition(
        self, partition: PartitionId
    ) -> Tuple[int, ...]:
        """All copy sites of ``partition`` (primary first)."""
        return self._partition_nodes[partition]

    def node_of_page(self, page: PageId) -> int:
        """The primary node storing ``page``."""
        return self._partition_nodes[page.partition_id][0]

    def nodes_of_page(self, page: PageId) -> Tuple[int, ...]:
        """All copy sites of ``page`` (primary first)."""
        return self._partition_nodes[page.partition_id]

    def partitions_at(self, node: int) -> Tuple[PartitionId, ...]:
        """All partitions stored at ``node``."""
        return tuple(self._node_partitions[node])

    def partitions_of(self, relation: int) -> Tuple[PartitionId, ...]:
        """All partitions of ``relation``, in partition order."""
        return tuple(
            PartitionId(relation, p)
            for p in range(self.config.partitions_per_relation)
        )

    def nodes_of_relation(self, relation: int) -> Tuple[int, ...]:
        """Distinct nodes holding any partition of ``relation``."""
        seen: list[int] = []
        for partition in self.partitions_of(relation):
            node = self._partition_nodes[partition][0]
            if node not in seen:
                seen.append(node)
        return tuple(seen)

    @property
    def num_relations(self) -> int:
        """Number of relations in the database."""
        return self.config.num_relations

    @property
    def pages_per_partition(self) -> int:
        """FileSize: pages in each partition."""
        return self.config.pages_per_partition

    def effective_degree(self, relation: int) -> int:
        """Actual number of nodes ``relation`` spans (parallelism)."""
        return len(self.nodes_of_relation(relation))

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"<Database {cfg.num_relations}x{cfg.partitions_per_relation}"
            f" files, {cfg.pages_per_partition} pages/file,"
            f" {self.num_proc_nodes} nodes,"
            f" {cfg.placement.value}/{cfg.placement_degree}>"
        )
