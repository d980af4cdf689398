"""Distributed two-phase locking (paper §2.2).

Cohorts lock dynamically as they execute — shared locks for reads,
converted to exclusive for updates — and hold all locks until the
transaction commits or aborts.  Deadlocks are handled at two levels:

* **Local detection on block.**  Whenever a cohort blocks, the node's
  waits-for graph is searched for a cycle through the blocker, walking
  out from it along the lock table's wait edges; the youngest
  transaction in the cycle (most recent initial startup time) is
  aborted.

* **Global "Snoop" detection.**  A Snoop responsibility rotates among
  the processing nodes round-robin, as in Distributed INGRES.  After
  holding the role for ``DetectionInterval`` seconds, the Snoop node
  gathers waits-for edges from every other node (one request and one
  reply message per node, paying normal message CPU costs), unions them
  with its own, breaks every cycle found by aborting the youngest
  member, and passes the role on.

Victim aborts travel through the transaction manager's abort-request
path: a message to the victim's coordinator at the host, then the
ordinary abort protocol.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.cc.base import CCAlgorithm, CCContext, CCResponse
from repro.cc.locking_common import LockingNodeManager
from repro.cc.locks import LockManager, LockRequest
from repro.cc.wfg import break_all_deadlocks, find_cycle_from, youngest
from repro.core.transaction import Transaction

__all__ = [
    "TwoPhaseLocking",
    "TwoPhaseLockingNodeManager",
    "local_deadlock_cycle",
]


def local_deadlock_cycle(
    locks: LockManager,
    start: Transaction,
    doomed: Set[Transaction],
) -> Optional[List[Transaction]]:
    """A cycle through ``start`` in ``locks``' waits-for graph, or None.

    Edges with a doomed or already-aborting end are treated as gone:
    those transactions' locks are about to be released, so cycles
    through them resolve themselves.  Every transaction the search
    reaches past ``start`` passed that test as someone's blocker.
    """
    waits_for = locks.waits_for

    def blockers(txn: Transaction) -> List[Transaction]:
        if txn in doomed or txn.abort_pending:
            return []
        return [
            other
            for other in waits_for(txn)
            if other not in doomed and not other.abort_pending
        ]

    return find_cycle_from(start, blockers)


class TwoPhaseLockingNodeManager(LockingNodeManager):
    """2PL node manager: block on conflict, detect local deadlocks."""

    upgrades_jump_queue = True

    def on_conflict(
        self,
        request: LockRequest,
        conflict_set: List[Transaction],
    ) -> CCResponse:
        """Block, after local deadlock detection.

        Every new wait edge touches the blocker (including the
        behind-edges an upgrade creates by jumping the queue), so any
        cycle this block just closed passes through the blocker.
        Several distinct cycles can close at once, so detection
        iterates: find a cycle through the blocker, doom its youngest
        member, and search again without the doomed transactions
        until no cycle remains.  Blocked purely behind compatible
        waiters (e.g. a shared request behind a shared queue), the
        blocker has no outgoing wait edge, so no cycle can pass
        through it and there is nothing to search.
        """
        me = request.transaction
        doomed: Set[Transaction] = set()
        while conflict_set and me not in doomed:
            cycle = local_deadlock_cycle(self.locks, me, doomed)
            if cycle is None:
                break
            victim = youngest(cycle)
            doomed.add(victim)
            self.context.request_abort(
                victim, "local-deadlock", self.node_id
            )
        return CCResponse.blocked(request.event)


class TwoPhaseLocking(CCAlgorithm):
    """Distributed 2PL with the rotating Snoop global detector."""

    name = "2pl"

    def make_node_manager(
        self, node_id: int, context: CCContext
    ) -> TwoPhaseLockingNodeManager:
        """Create the lock-based manager for one node."""
        return TwoPhaseLockingNodeManager(node_id, context)

    def start_global(self, simulation) -> None:
        """Launch the Snoop process (only useful with 2+ nodes)."""
        if simulation.config.num_proc_nodes < 2:
            return
        simulation.env.process(
            self._snoop(simulation), name="snoop"
        )

    def _snoop(self, simulation):
        """The rotating global deadlock detector."""
        env = simulation.env
        network = simulation.network
        managers = simulation.node_cc_managers
        context = simulation.cc_context
        interval = simulation.config.detection_interval
        num_nodes = len(managers)
        snoop_node = 0
        while True:
            yield env.timeout(interval)
            edges = list(managers[snoop_node].waits_for_edges())
            replies = []
            for node in range(num_nodes):
                if node == snoop_node:
                    continue
                replies.append(
                    self._gather_from(
                        env, network, managers, snoop_node, node
                    )
                )
            if replies:
                reply_lists = yield env.all_of(replies)
                for node_edges in reply_lists:
                    edges.extend(node_edges)
            # Transactions already marked for abort are as good as
            # gone: their locks release when the abort message lands,
            # so cycles through them need no (second) victim.
            edges = [
                (waiter, holder)
                for waiter, holder in edges
                if not waiter.abort_pending
                and not holder.abort_pending
            ]
            for victim in break_all_deadlocks(edges):
                if victim.abortable:
                    context.request_abort(
                        victim, "global-deadlock", snoop_node
                    )
            snoop_node = (snoop_node + 1) % num_nodes

    def _gather_from(self, env, network, managers, snoop_node, node):
        """Request + reply message pair collecting one node's edges.

        Under fault injection either message can be dropped (lossy
        link, endpoint down); the ``on_drop`` hooks resolve the reply
        with no edges so the Snoop round always completes — a missed
        deadlock is re-detected next interval.
        """
        reply_event = env.event()

        def deliver_reply(edges) -> None:
            if not reply_event.fired:
                reply_event.succeed(edges)

        def reply_dropped(_payload) -> None:
            if not reply_event.fired:
                reply_event.succeed([])

        def deliver_request(_payload) -> None:
            # Snapshot the node's edges when the request arrives and
            # ship them back to the Snoop node.
            edges = managers[node].waits_for_edges()
            network.post(
                node,
                snoop_node,
                deliver_reply,
                edges,
                on_drop=reply_dropped,
            )

        network.post(
            snoop_node,
            node,
            deliver_request,
            on_drop=reply_dropped,
        )
        return reply_event
