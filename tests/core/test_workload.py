"""Tests for the workload source."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    DatabaseConfig,
    ExecutionPattern,
    PlacementKind,
    TransactionClassConfig,
    WorkloadConfig,
)
from repro.core.database import Database
from repro.core.transaction import AccessSpec, CohortSpec, PageAccess
from repro.core.workload import AggregatedTerminalSource, Source
from repro.sim.kernel import Environment, SimulationError
from repro.sim.streams import RandomStreams, derive_seed


def make_source(degree=8, num_terminals=128, classes=None, seed=1):
    workload = WorkloadConfig(
        num_terminals=num_terminals,
        classes=classes or (TransactionClassConfig(),),
    )
    database = Database(
        DatabaseConfig(
            placement=(
                PlacementKind.COLOCATED
                if degree == 1
                else PlacementKind.DECLUSTERED
            ),
            placement_degree=degree,
        ),
        num_proc_nodes=8,
    )
    return Source(workload, database, RandomStreams(seed))


def think_source(seed):
    """A source whose terminals think for 8 s on average."""
    workload = WorkloadConfig(think_time=8.0)
    return Source(workload, Database(DatabaseConfig(), 8), RandomStreams(seed))


class TestTerminalGrouping:
    def test_groups_of_sixteen(self):
        source = make_source()
        assert source.relation_of(0) == 0
        assert source.relation_of(15) == 0
        assert source.relation_of(16) == 1
        assert source.relation_of(127) == 7

    def test_transactions_stay_within_terminal_relation(self):
        source = make_source()
        for terminal in (0, 17, 33, 127):
            spec = source.generate(terminal)
            assert spec.relation == source.relation_of(terminal)
            for cohort in spec.cohorts:
                for access in cohort.accesses:
                    assert access.page.relation == spec.relation


class TestAccessDraws:
    def test_pages_per_partition_in_footnote_range(self):
        source = make_source()
        for _ in range(50):
            spec = source.generate(0)
            per_partition = {}
            for cohort in spec.cohorts:
                for access in cohort.accesses:
                    key = access.page.partition
                    per_partition[key] = per_partition.get(key, 0) + 1
            assert set(per_partition) == set(range(8))
            for count in per_partition.values():
                assert 4 <= count <= 12

    def test_pages_within_partition_distinct(self):
        source = make_source()
        for _ in range(20):
            spec = source.generate(5)
            pages = [
                access.page
                for cohort in spec.cohorts
                for access in cohort.accesses
            ]
            assert len(pages) == len(set(pages))

    def test_page_indices_in_bounds(self):
        source = make_source()
        spec = source.generate(64)
        for cohort in spec.cohorts:
            for access in cohort.accesses:
                assert 0 <= access.page.page < 300

    def test_write_fraction_near_one_eighth(self):
        source = make_source()
        reads = writes = 0
        for _ in range(200):
            spec = source.generate(0)
            reads += spec.num_reads
            writes += spec.num_updates
        assert writes / reads == pytest.approx(0.125, abs=0.02)

    def test_mean_reads_near_64(self):
        source = make_source()
        totals = [source.generate(0).num_reads for _ in range(300)]
        assert sum(totals) / len(totals) == pytest.approx(64, rel=0.05)


class TestCohortGrouping:
    def test_eight_way_spec_has_eight_cohorts(self):
        source = make_source(degree=8)
        spec = source.generate(0)
        assert len(spec.cohorts) == 8
        assert sorted(spec.nodes) == list(range(8))

    def test_one_way_spec_has_single_cohort(self):
        source = make_source(degree=1)
        spec = source.generate(0)
        assert len(spec.cohorts) == 1

    def test_cohort_accesses_live_at_cohort_node(self):
        source = make_source(degree=4)
        spec = source.generate(40)
        for cohort in spec.cohorts:
            for access in cohort.accesses:
                node = source.database.node_of_page(access.page)
                assert node == cohort.node

    def test_placement_does_not_change_drawn_pages(self):
        """Footnote 8: access streams are placement-independent."""
        pages_8way = [
            access.page
            for cohort in make_source(degree=8, seed=9)
            .generate(3).cohorts
            for access in cohort.accesses
        ]
        pages_1way = [
            access.page
            for cohort in make_source(degree=1, seed=9)
            .generate(3).cohorts
            for access in cohort.accesses
        ]
        assert sorted(pages_8way) == sorted(pages_1way)


def per_access_spec(source, terminal):
    """Reference placement: draw every partition's accesses first,
    then place each access through ``Database.nodes_of_page``
    (read-one at a ``copy-choice`` copy, write-all install legs)."""
    cls = source.class_of(terminal)
    relation = source.relation_of(terminal)
    accesses = []
    for partition in source._choose_partitions(cls, relation):
        accesses.extend(
            source._draw_partition_accesses(cls, relation, partition)
        )
    placed = []
    for access in accesses:
        copy_nodes = source.database.nodes_of_page(access.page)
        if len(copy_nodes) == 1:
            placed.append((copy_nodes[0], access))
            continue
        read_index = source.streams.get(
            "copy-choice", owner="workload"
        ).randint(0, len(copy_nodes) - 1)
        placed.append((copy_nodes[read_index], access))
        if access.is_update:
            for index, node in enumerate(copy_nodes):
                if index != read_index:
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
    by_node = {}
    for node, access in placed:
        by_node.setdefault(node, []).append(access)
    return AccessSpec(
        relation=relation,
        cohorts=tuple(
            CohortSpec(node=node, accesses=tuple(node_accesses))
            for node, node_accesses in sorted(by_node.items())
        ),
    )


class TestPlacementReference:
    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 42, 1989])
    def test_generate_matches_per_access_placement(self, copies, seed):
        def build():
            return Source(
                WorkloadConfig(
                    num_terminals=32,
                    classes=(
                        TransactionClassConfig(write_probability=0.5),
                    ),
                ),
                Database(DatabaseConfig(copies=copies), 8),
                RandomStreams(seed),
            )

        source, reference = build(), build()
        for terminal in range(32):
            assert source.generate(terminal) == per_access_spec(
                reference, terminal
            )
        assert (
            source.streams.get("copy-choice").getstate()
            == reference.streams.get("copy-choice").getstate()
        )


class TestClasses:
    def test_single_class_assigned_everywhere(self):
        source = make_source()
        assert all(
            source.class_of(t).name == "default" for t in range(128)
        )

    def test_two_classes_split_by_fraction(self):
        classes = (
            TransactionClassConfig(
                name="small", terminal_fraction=0.75, pages_per_file=4
            ),
            TransactionClassConfig(
                name="big", terminal_fraction=0.25, pages_per_file=8
            ),
        )
        source = make_source(classes=classes)
        names = [source.class_of(t).name for t in range(128)]
        assert names.count("small") == 96
        assert names.count("big") == 32

    def test_file_count_smaller_than_partitions(self):
        classes = (TransactionClassConfig(file_count=3),)
        source = make_source(classes=classes)
        spec = source.generate(0)
        partitions = {
            access.page.partition
            for cohort in spec.cohorts
            for access in cohort.accesses
        }
        assert len(partitions) == 3

    def test_sequential_class_flag_respected(self):
        classes = (
            TransactionClassConfig(
                execution_pattern=ExecutionPattern.SEQUENTIAL
            ),
        )
        source = make_source(classes=classes)
        assert (
            source.class_of(0).execution_pattern
            is ExecutionPattern.SEQUENTIAL
        )


class _RaisingManager:
    """The transaction-manager surface the terminal source drives, with
    a transaction body that raises after one simulated second."""

    active_transactions = 0
    _tracing = False

    def __init__(self, env):
        self.env = env

    def _run_transaction(self, transaction):
        yield self.env.timeout(1.0)
        raise ValueError(f"transaction {transaction.tid} failed")


class TestTerminalSource:
    def test_raising_transaction_is_its_terminals_crash(self):
        env = Environment()
        manager = _RaisingManager(env)
        AggregatedTerminalSource(
            env, make_source(num_terminals=2), manager
        ).start()
        env.run()
        assert [
            (watcher.name, type(exception))
            for watcher, exception in env.crashes
        ] == [("terminal-0", ValueError), ("terminal-1", ValueError)]
        # The crash report, the name's one reader, still names it.
        with pytest.raises(SimulationError, match="process 'terminal-0'"):
            env.check_crashes()
        # A crashed transaction never finishes: its terminal stops.
        assert manager.active_transactions == 2


class TestTimings:
    def test_zero_think_time(self):
        source = make_source()
        assert source.think_time(0) == 0.0

    def test_positive_think_time_mean(self):
        source = think_source(seed=2)
        draws = [source.think_time(0) for _ in range(5_000)]
        assert sum(draws) / len(draws) == pytest.approx(8.0, rel=0.1)

    def test_think_draws_follow_one_stream_per_terminal(self):
        """The transient first draw and the replayed one leave each
        terminal on the sequence of its own ``think-T`` stream."""
        source = think_source(seed=11)
        reference = random.Random(derive_seed(11, "think-5"))
        expected = [reference.expovariate(1 / 8.0) for _ in range(5)]
        assert [source.think_time(5) for _ in range(5)] == expected

    def test_think_stream_resident_only_from_second_draw(self):
        source = think_source(seed=11)

        def resident():
            cached = [
                name for name in source.streams._streams
                if name.startswith("think-")
            ]
            return sorted(source._think_draws), cached

        for terminal in range(4):
            source.think_time(terminal)
        assert resident() == ([], [])
        source.think_time(2)
        assert resident() == ([2], [])

    def test_page_instructions_exponential_mean(self):
        source = make_source()
        cls = TransactionClassConfig()
        draws = [
            source.page_processing_instructions(cls)
            for _ in range(5_000)
        ]
        assert sum(draws) / len(draws) == pytest.approx(
            8_000, rel=0.1
        )


@given(
    terminal=st.integers(min_value=0, max_value=127),
    seed=st.integers(min_value=0, max_value=10_000),
    degree=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=50, deadline=None)
def test_property_spec_well_formed(terminal, seed, degree):
    source = make_source(degree=degree, seed=seed)
    spec = source.generate(terminal)
    assert 4 * 8 <= spec.num_reads <= 12 * 8
    assert spec.num_updates <= spec.num_reads
    assert len({cohort.node for cohort in spec.cohorts}) == len(
        spec.cohorts
    )
    expected_degree = degree
    assert len(spec.cohorts) == expected_degree
