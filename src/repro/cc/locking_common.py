"""Shared node-manager logic for the locking algorithms (2PL, WW, WD, IR).

The four locking algorithms share one lock table and differ only in
what happens when a request must wait: 2PL blocks and checks for
deadlocks, wound-wait wounds younger conflicting transactions first,
wait-die lets a younger requester die, and immediate restart rejects
every conflict.  That difference is the
:meth:`LockingNodeManager.on_conflict` hook, which the lock table calls
with the queued request and returns the response of.  A request the
table grants at once never reaches the manager's policy: ``read_request``
and ``write_request`` return the table's response as it is.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import List, Tuple

from repro.cc.base import CCContext, CCResponse, NodeCCManager
from repro.cc.locks import LockManager, LockMode, LockRequest
from repro.core.database import PageId
from repro.core.transaction import Cohort, Transaction

__all__ = ["LockingNodeManager"]

_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE


class LockingNodeManager(NodeCCManager):
    """Lock-table-backed CC manager; subclasses set the wait policy."""

    #: Whether read-to-write conversions are placed ahead of ordinary
    #: waiters.  2PL says yes (usual lock manager practice); wound-wait
    #: says no, which together with wounding keeps every wait edge
    #: pointing from a younger to an older transaction.
    upgrades_jump_queue = True

    def __init__(self, node_id: int, context: CCContext):
        super().__init__(node_id, context)
        self.locks = self._new_lock_table()

    def _new_lock_table(self) -> LockManager:
        return LockManager(
            self.context.env,
            upgrades_jump_queue=self.upgrades_jump_queue,
            on_conflict=self.on_conflict,
        )

    def read_request(self, cohort: Cohort, page: PageId) -> CCResponse:
        """Acquire a shared lock; a conflict goes to the policy."""
        return self.locks.acquire(cohort, page, _SHARED)

    def write_request(self, cohort: Cohort, page: PageId) -> CCResponse:
        """Convert the read lock to a write lock; a conflict goes to
        the policy."""
        return self.locks.acquire(cohort, page, _EXCLUSIVE)

    @abstractmethod
    def on_conflict(
        self,
        request: LockRequest,
        conflict_set: List[Transaction],
    ) -> CCResponse:
        """Policy for a request the table has just queued.

        ``conflict_set`` lists the distinct transactions the request
        waits for.  Returns the response: blocked on
        ``request.event``, or rejected after withdrawing the request
        with ``self.locks.cancel_request``.
        """

    def prepare(self, cohort: Cohort) -> bool:
        """Locking validates during execution; always vote yes."""
        return True

    def commit(self, cohort: Cohort) -> List[PageId]:
        """Release all locks held at this node; all updates install."""
        self.locks.release_all(cohort.transaction)
        return cohort.updated_pages

    def abort(self, cohort: Cohort) -> None:
        """Release locks and drop any queued request (idempotent)."""
        self.locks.release_all(cohort.transaction)

    def crash_reset(self) -> None:
        """Drop the whole lock table (all residents were interrupted)."""
        self.locks = self._new_lock_table()

    def waits_for_edges(
        self,
    ) -> List[Tuple[Transaction, Transaction]]:
        """Local waits-for edges, for the deadlock detectors."""
        return self.locks.waits_for_edges()
