"""Waits-for graph analysis for deadlock detection (paper §2.2).

Used two ways by distributed 2PL:

* *Local detection* whenever a cohort blocks — a cycle search seeded at
  the newly blocked transaction, asking the node's lock table whom each
  transaction it reaches waits for.
* *Global detection* by the rotating "Snoop" — the union of all nodes'
  edges is scanned for cycles; each cycle is broken by aborting the
  youngest member (the one with the most recent initial startup time).

Edges are (waiter, holder) transaction pairs.  The functions are pure:
the local search takes a neighbour function, the global one an edge
list, so both are directly testable.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Set, Tuple

from repro.core.transaction import Transaction

__all__ = [
    "break_all_deadlocks",
    "build_adjacency",
    "find_cycle_from",
    "youngest",
]

Edge = Tuple[Transaction, Transaction]


def build_adjacency(
    edges: Iterable[Edge],
) -> Dict[Transaction, List[Transaction]]:
    """Adjacency map (waiter -> holders) from an edge list."""
    adjacency: Dict[Transaction, List[Transaction]] = {}
    for waiter, holder in edges:
        neighbors = adjacency.setdefault(waiter, [])
        if holder not in neighbors:
            neighbors.append(holder)
    return adjacency


def find_cycle_from(
    start: Transaction,
    neighbours: Callable[[Transaction], Iterable[Transaction]],
) -> Optional[List[Transaction]]:
    """A cycle through ``start``, or None.

    Iterative DFS along waits-for edges: ``neighbours(txn)`` lists whom
    ``txn`` waits for, in the order the search tries them, and is asked
    once per transaction reached.  Returns the cycle's members (each
    waiting for the next, last waiting for ``start``).
    """
    path: List[Transaction] = [start]
    visited: Set[Transaction] = {start}
    stack = [iter(neighbours(start))]
    while stack:
        for neighbour in stack[-1]:
            if neighbour is start:
                return list(path)
            if neighbour not in visited:
                visited.add(neighbour)
                path.append(neighbour)
                stack.append(iter(neighbours(neighbour)))
                break
        else:
            stack.pop()
            path.pop()
    return None


def youngest(members: Sequence[Transaction]) -> Transaction:
    """The member with the most recent initial startup timestamp.

    Ties (e.g. transactions that have not been stamped yet, which all
    compare as ``(0.0, 0)``) break on transaction id rather than on the
    members' iteration order, so victim choice never depends on how
    the cycle happened to be walked.
    """
    return max(
        members,
        key=lambda txn: (txn.startup_timestamp or (0.0, 0), txn.tid),
    )


def break_all_deadlocks(
    edges: Iterable[Edge],
) -> List[Transaction]:
    """Victims whose removal makes the waits-for graph acyclic.

    Repeatedly finds a cycle, marks its youngest member as a victim,
    removes the victim's edges, and rescans — mirroring a detector that
    aborts one transaction per deadlock found.
    """
    remaining = list(edges)
    victims: List[Transaction] = []
    while True:
        adjacency = build_adjacency(remaining)
        cycle = _find_any_cycle(adjacency)
        if cycle is None:
            return victims
        victim = youngest(cycle)
        victims.append(victim)
        remaining = [
            (waiter, holder)
            for waiter, holder in remaining
            if waiter is not victim and holder is not victim
        ]


def _find_any_cycle(
    adjacency: Dict[Transaction, List[Transaction]],
) -> Optional[List[Transaction]]:
    visited: Set[Transaction] = set()
    for start in list(adjacency):
        if start in visited:
            continue
        cycle = _dfs_cycle(start, adjacency, visited)
        if cycle is not None:
            return cycle
    return None


def _dfs_cycle(
    start: Transaction,
    adjacency: Dict[Transaction, List[Transaction]],
    visited: Set[Transaction],
) -> Optional[List[Transaction]]:
    stack: List[Tuple[Transaction, int]] = [(start, 0)]
    path: List[Transaction] = [start]
    on_path: Set[Transaction] = {start}
    visited.add(start)
    while stack:
        node, edge_index = stack[-1]
        neighbors = adjacency.get(node, [])
        if edge_index >= len(neighbors):
            stack.pop()
            path.pop()
            on_path.discard(node)
            continue
        stack[-1] = (node, edge_index + 1)
        neighbor = neighbors[edge_index]
        if neighbor in on_path:
            cycle_start = path.index(neighbor)
            return path[cycle_start:]
        if neighbor in visited:
            continue
        visited.add(neighbor)
        on_path.add(neighbor)
        path.append(neighbor)
        stack.append((neighbor, 0))
    return None
