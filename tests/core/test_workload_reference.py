"""The written-out page sampler and the generator against references.

``sample_range`` must be ``random.Random.sample(range(n), k)`` draw for
draw, and ``Source.generate`` must produce what the generator did
before it built its tuples directly, drew through ``sample_range`` and
grouped accesses per node as it placed them: the same specifications,
with every workload stream left in the same state.
"""

import math
import random

import pytest

from repro.core.config import (
    DatabaseConfig,
    TransactionClassConfig,
    WorkloadConfig,
)
from repro.core.database import Database, PageId, PartitionId
from repro.core.transaction import AccessSpec, CohortSpec, PageAccess
from repro.core.workload import Source, sample_range
from repro.sim.streams import RandomStreams

SEEDS = (3, 42, 1989)

#: (n, k): the pool branch (n at most the set size: 21, or 21 plus a
#: power of four for k > 5), the set branch, k <= 5 and k > 5, k = 0
#: and k = n, with n on both sides of the set size.
SAMPLE_CASES = [
    (0, 0),
    (1, 1),
    (5, 0),
    (10, 3),
    (21, 5),
    (22, 5),
    (20, 20),
    (60, 6),
    (85, 12),
    (86, 12),
    (200, 22),
    (277, 22),
    (278, 22),
    (300, 0),
    (300, 1),
    (300, 4),
    (300, 8),
    (300, 12),
    (300, 60),
    (1000, 300),
    (50, 50),
    (8, 3),
]


class TestSampleRange:
    @pytest.mark.parametrize("n, k", SAMPLE_CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_stdlib_sample(self, seed, n, k):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert sample_range(ours.getrandbits, n, k) == stdlib.sample(
                range(n), k
            )
        assert ours.getstate() == stdlib.getstate()

    def test_both_branches_reached(self):
        """The cases straddle the stdlib's pool/set threshold."""

        def takes_pool(n, k):
            setsize = 21
            if k > 5:
                setsize += 4 ** math.ceil(math.log(k * 3, 4))
            return n <= setsize

        pool = {(n, k) for n, k in SAMPLE_CASES if takes_pool(n, k)}
        assert {(20, 20), (21, 5), (60, 6), (85, 12), (277, 22)} <= pool
        assert not {(22, 5), (86, 12), (278, 22), (300, 8)} & pool

    @pytest.mark.parametrize("n, k", [(3, 4), (3, -1), (0, 1)])
    def test_rejects_impossible_sizes(self, n, k):
        with pytest.raises(ValueError):
            sample_range(random.Random(1).getrandbits, n, k)


class ReferenceSource(Source):
    """The generator as it was: named-stream lookups per draw,
    ``Random.sample``, ``NamedTuple`` constructors, and one grouping
    pass over every placed access."""

    def generate(self, terminal):
        cls = self.class_of(terminal)
        relation = self.relation_of(terminal)
        partitions = self._choose_partitions(cls, relation)
        nodes_of_partition = self.database.nodes_of_partition
        placed = []
        for partition in partitions:
            accesses = self._draw_partition_accesses(
                cls, relation, partition
            )
            copy_nodes = nodes_of_partition(
                PartitionId(relation, partition)
            )
            if len(copy_nodes) == 1:
                node = copy_nodes[0]
                placed.extend([(node, access) for access in accesses])
            else:
                self._place_replicated(copy_nodes, accesses, placed)
        by_node = {}
        for node, access in placed:
            by_node.setdefault(node, []).append(access)
        cohorts = [
            CohortSpec(node=node, accesses=tuple(node_accesses))
            for node, node_accesses in sorted(by_node.items())
        ]
        return AccessSpec(relation=relation, cohorts=tuple(cohorts))

    def _place_replicated(self, copy_nodes, accesses, placed):
        for access in accesses:
            read_index = self.streams.get(
                "copy-choice", owner="workload"
            ).randint(0, len(copy_nodes) - 1)
            placed.append((copy_nodes[read_index], access))
            if access.is_update:
                for index, node in enumerate(copy_nodes):
                    if index == read_index:
                        continue
                    placed.append(
                        (
                            node,
                            PageAccess(
                                page=access.page,
                                is_update=True,
                                install_only=True,
                            ),
                        )
                    )

    def _choose_partitions(self, cls, relation):
        total = self.database.config.partitions_per_relation
        count = min(cls.file_count, total)
        if count == total:
            return range(total)
        chosen = self.streams.get("file-choice", owner="workload").sample(
            range(total), count
        )
        return sorted(chosen)

    def _draw_partition_accesses(self, cls, relation, partition):
        num_pages = self.streams.get("page-count").randint(
            cls.min_pages_per_file, cls.max_pages_per_file
        )
        pages_per_partition = self.database.pages_per_partition
        num_pages = min(num_pages, pages_per_partition)
        if cls.access_skew > 0.0:
            page_indices = self._draw_skewed_indices(
                cls.access_skew, pages_per_partition, num_pages
            )
        else:
            page_indices = self.streams.get("page-choice").sample(
                range(pages_per_partition), num_pages
            )
        accesses = []
        for index in page_indices:
            page = PageId(relation, partition, index)
            is_update = self.streams.bernoulli(
                "write-coin", cls.write_probability
            )
            accesses.append(PageAccess(page=page, is_update=is_update))
        return accesses


WORKLOAD_STREAMS = (
    "page-count",
    "page-choice",
    "write-coin",
    "copy-choice",
    "file-choice",
    "page-skew",
)

#: name -> (transaction classes, copies per partition).
WORKLOADS = {
    "uniform": ((TransactionClassConfig(),), 1),
    "zipf": (
        (
            TransactionClassConfig(
                name="hot", terminal_fraction=0.5, access_skew=0.99,
                write_probability=0.5,
            ),
            TransactionClassConfig(
                name="uniform", terminal_fraction=0.5, file_count=3
            ),
        ),
        1,
    ),
    "two-copies": (
        (TransactionClassConfig(write_probability=0.5),),
        2,
    ),
    "three-copies": (
        (TransactionClassConfig(write_probability=0.5, file_count=5),),
        3,
    ),
    "few-files": (
        (
            TransactionClassConfig(
                name="few", terminal_fraction=0.5, file_count=3,
                write_probability=1.0,
            ),
            TransactionClassConfig(
                name="one", terminal_fraction=0.5, file_count=1,
                write_probability=0.0, pages_per_file=40,
            ),
        ),
        1,
    ),
}


def build(source_class, name, seed):
    classes, copies = WORKLOADS[name]
    return source_class(
        WorkloadConfig(num_terminals=32, classes=classes),
        Database(DatabaseConfig(copies=copies), 8),
        RandomStreams(seed),
    )


class TestGeneratorReference:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generate_matches_reference(self, name, seed):
        source = build(Source, name, seed)
        reference = build(ReferenceSource, name, seed)
        for _ in range(3):
            for terminal in range(32):
                assert source.generate(terminal) == reference.generate(
                    terminal
                )
        for stream in WORKLOAD_STREAMS:
            assert (
                source.streams.get(stream).getstate()
                == reference.streams.get(stream).getstate()
            ), stream

    def test_workloads_reach_every_path(self):
        """Each placement and choice path is taken somewhere."""
        seen = set()
        for name in WORKLOADS:
            source = build(Source, name, 42)
            for terminal in range(32):
                spec = source.generate(terminal)
                cls = source.class_of(terminal)
                if cls.access_skew > 0.0:
                    seen.add("zipf")
                if cls.file_count < 8:
                    seen.add("file-choice")
                for cohort in spec.cohorts:
                    for access in cohort.accesses:
                        seen.add(
                            "install" if access.install_only
                            else "update" if access.is_update
                            else "read"
                        )
        assert seen == {"zipf", "file-choice", "install", "update", "read"}

    def test_tuples_are_the_named_types(self):
        spec = build(Source, "two-copies", 42).generate(0)
        access = spec.cohorts[0].accesses[0]
        assert type(access) is PageAccess
        assert type(access.page) is PageId
        assert access == PageAccess(
            page=PageId(*access.page),
            is_update=access.is_update,
            install_only=access.install_only,
        )
