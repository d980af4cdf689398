"""Serializability auditing (test/verification support).

An :class:`Auditor` attached to a simulation observes the *history* the
concurrency control algorithm produced: which version of each page every
committed transaction read, and the order in which committed writes were
installed.  From that it builds the version-order serialization graph

* ``w_k -> w_{k+1}``   (install order per page),
* ``w_k -> r``          for every reader of version ``k``,
* ``r -> w_{k+1}``      readers precede the next writer,

whose acyclicity is (view-)serializability of the committed projection.
The Thomas write rule is handled naturally because discarded writes are
never installed and so never appear in the version chain.

The auditor costs a dictionary update per access, so it is off by
default; the integration test suite turns it on to verify that all four
algorithms produce serializable executions under load.

With replication, each physical copy is its own item: versions are
keyed by ``(page, node)``.  Acyclicity of the union graph over all
copies is then one-copy serializability of the committed projection
under the read-one/write-all discipline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.database import PageId
from repro.core.transaction import Cohort, Transaction

__all__ = ["Auditor"]

#: A committed transaction is identified by (tid, attempt).
TxnKey = Tuple[int, int]

#: A physical item is one copy of a page: (PageId, node).
Item = Tuple[PageId, int]


class Auditor:
    """Records committed reads/installs and checks serializability."""

    def __init__(self):
        #: Current version of each item: the key of the last
        #: installer, or None for the initial version.
        self._current_version: Dict[Item, Optional[TxnKey]] = {}
        #: Install order per item (committed writers only).
        self.install_order: Dict[Item, List[TxnKey]] = {}
        #: version read per (attempt, item); buffered until commit.
        self._attempt_reads: Dict[
            TxnKey, List[Tuple[Item, Optional[TxnKey]]]
        ] = {}
        #: Reads of committed transactions.
        self.committed_reads: Dict[
            TxnKey, List[Tuple[Item, Optional[TxnKey]]]
        ] = {}
        self.committed: List[TxnKey] = []

    @staticmethod
    def _key(transaction: Transaction) -> TxnKey:
        return (transaction.tid, transaction.attempt)

    # ------------------------------------------------------------------
    # Hooks called by the transaction manager
    # ------------------------------------------------------------------

    def on_read_granted(self, cohort: Cohort, page: PageId) -> None:
        """A cohort's read was granted: record the version it sees.

        Items are physical copies, so the version is looked up for the
        copy at the cohort's node.
        """
        key = self._key(cohort.transaction)
        item = (page, cohort.node)
        version = self._current_version.get(item)
        self._attempt_reads.setdefault(key, []).append((item, version))

    def on_installed(
        self, cohort: Cohort, pages: List[PageId]
    ) -> None:
        """A committing cohort installed updates on ``pages``."""
        key = self._key(cohort.transaction)
        for page in pages:
            item = (page, cohort.node)
            self._current_version[item] = key
            self.install_order.setdefault(item, []).append(key)

    def on_committed(self, transaction: Transaction) -> None:
        """The transaction committed: promote its buffered reads."""
        key = self._key(transaction)
        self.committed.append(key)
        self.committed_reads[key] = self._attempt_reads.pop(key, [])

    def on_aborted(self, transaction: Transaction) -> None:
        """The attempt aborted: drop its buffered reads."""
        self._attempt_reads.pop(
            self._key(transaction), None
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def serialization_edges(self) -> Set[Tuple[TxnKey, TxnKey]]:
        """Version-order serialization edges over committed txns."""
        committed = set(self.committed)
        edges: Set[Tuple[TxnKey, TxnKey]] = set()
        successor: Dict[Tuple[Item, Optional[TxnKey]], TxnKey] = {}
        # Both loops accumulate into sets keyed independently of the
        # visit order, so insertion-order iteration cannot leak into
        # the returned edge set.
        for item, writers in self.install_order.items():  # simlint: ignore[unordered-iteration]
            previous: Optional[TxnKey] = None
            for writer in writers:
                if previous is not None:
                    edges.add((previous, writer))
                successor[(item, previous)] = writer
                previous = writer
        for reader, reads in self.committed_reads.items():  # simlint: ignore[unordered-iteration]
            for item, version in reads:
                if version is not None and version in committed:
                    if version != reader:
                        edges.add((version, reader))
                next_writer = successor.get((item, version))
                if next_writer is not None and next_writer != reader:
                    edges.add((reader, next_writer))
        return edges

    def find_cycle(self) -> Optional[List[TxnKey]]:
        """A cycle in the serialization graph, or None if serializable.

        Iterative DFS — histories can contain tens of thousands of
        committed transactions, far beyond the recursion limit.
        """
        adjacency: Dict[TxnKey, List[TxnKey]] = {}
        for source, target in self.serialization_edges():
            adjacency.setdefault(source, []).append(target)
        visited: Set[TxnKey] = set()
        for start in list(adjacency):
            if start in visited:
                continue
            stack: List[Tuple[TxnKey, int]] = [(start, 0)]
            path: List[TxnKey] = [start]
            on_path: Set[TxnKey] = {start}
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
                    return path[path.index(neighbor):]
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                on_path.add(neighbor)
                path.append(neighbor)
                stack.append((neighbor, 0))
        return None

    def is_serializable(self) -> bool:
        """Whether the committed projection is serializable."""
        return self.find_cycle() is None
