"""Tests for waits-for-graph cycle detection and victim selection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.wfg import (
    break_all_deadlocks,
    build_adjacency,
    find_cycle_from,
    youngest,
)


class FakeTxn:
    """Stand-in transaction with just a startup timestamp."""

    def __init__(self, stamp):
        self.startup_timestamp = (float(stamp), stamp)
        self.stamp = stamp
        self.tid = stamp

    def __repr__(self):
        return f"T{self.stamp}"


def txns(count):
    return [FakeTxn(index) for index in range(count)]


def neighbours(edges):
    """The neighbour function of an edge list's waits-for graph."""
    adjacency = build_adjacency(edges)
    return lambda txn: adjacency.get(txn, [])


class TestFindCycle:
    def test_no_cycle(self):
        a, b, c = txns(3)
        assert find_cycle_from(a, neighbours([(a, b), (b, c)])) is None

    def test_two_cycle(self):
        a, b = txns(2)
        cycle = find_cycle_from(a, neighbours([(a, b), (b, a)]))
        assert cycle is not None
        assert set(cycle) == {a, b}

    def test_self_loop(self):
        (a,) = txns(1)
        cycle = find_cycle_from(a, neighbours([(a, a)]))
        assert cycle == [a]

    def test_long_cycle(self):
        nodes = txns(6)
        edges = [
            (nodes[i], nodes[(i + 1) % 6]) for i in range(6)
        ]
        cycle = find_cycle_from(nodes[0], neighbours(edges))
        assert set(cycle) == set(nodes)

    def test_cycle_not_through_start_is_ignored(self):
        a, b, c = txns(3)
        # b <-> c cycle, a only points in.
        edges = [(a, b), (b, c), (c, b)]
        assert find_cycle_from(a, neighbours(edges)) is None

    def test_duplicate_edges_deduplicated(self):
        a, b = txns(2)
        adjacency = build_adjacency([(a, b), (a, b)])
        assert adjacency[a] == [b]


class TestYoungest:
    def test_picks_most_recent_startup(self):
        a, b, c = txns(3)
        assert youngest([a, c, b]) is c

    def test_single_member(self):
        (a,) = txns(1)
        assert youngest([a]) is a

    def test_equal_timestamps_break_on_tid(self):
        """Unstamped members all compare as (0.0, 0): the victim must
        be chosen by transaction id, not by iteration order."""
        a, b, c = txns(3)
        for member in (a, b, c):
            member.startup_timestamp = None
        a.tid, b.tid, c.tid = 10, 30, 20
        # Same set in any member order: always the highest tid.
        assert youngest([a, b, c]) is b
        assert youngest([c, b, a]) is b
        assert youngest([b, a, c]) is b


class TestBreakAllDeadlocks:
    def test_acyclic_graph_no_victims(self):
        a, b, c = txns(3)
        assert break_all_deadlocks([(a, b), (b, c)]) == []

    def test_single_cycle_aborts_youngest(self):
        a, b = txns(2)
        victims = break_all_deadlocks([(a, b), (b, a)])
        assert victims == [b]

    def test_two_disjoint_cycles_two_victims(self):
        a, b, c, d = txns(4)
        victims = break_all_deadlocks(
            [(a, b), (b, a), (c, d), (d, c)]
        )
        assert set(victims) == {b, d}

    def test_overlapping_cycles_may_share_victim(self):
        a, b, c = txns(3)
        # a -> b -> a and a -> c -> a: killing c and b (youngest of
        # each found cycle) or just enough to go acyclic.
        edges = [(a, b), (b, a), (a, c), (c, a)]
        victims = break_all_deadlocks(edges)
        survivors = {a, b, c} - set(victims)
        # The result must be acyclic: verify by re-running.
        remaining = [
            (x, y)
            for x, y in edges
            if x in survivors and y in survivors
        ]
        assert break_all_deadlocks(remaining) == []

    def test_victims_never_include_unrelated_transactions(self):
        a, b, c = txns(3)
        victims = break_all_deadlocks([(a, b), (b, a), (b, c)])
        assert c not in victims


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_property_break_all_leaves_acyclic(pairs):
    nodes = txns(8)
    edges = [(nodes[i], nodes[j]) for i, j in pairs]
    victims = set(break_all_deadlocks(edges))
    remaining = [
        (x, y)
        for x, y in edges
        if x not in victims and y not in victims
    ]
    assert break_all_deadlocks(remaining) == []
