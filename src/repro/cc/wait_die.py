"""Wait-die locking (extension; [Rose78], the sibling of wound-wait).

Not one of the paper's four algorithms, but the natural companion to
wound-wait from the same Rosenkrantz et al. paper, included as an
extension for completeness of the timestamp-prevention family:

* wound-wait: an *older* requester kills younger lock holders
  ("wound"), a *younger* requester waits.
* wait-die: an *older* requester waits, a *younger* requester "dies" —
  it aborts itself rather than wait for an older transaction.

Every wait edge therefore points from an older to a younger
transaction, the mirror image of wound-wait's invariant, and the
schedule is deadlock-free for the mirrored reason.  Restarted
transactions keep their original timestamp so they age into waiters and
cannot die forever.

Because the requester itself dies (rather than a remote victim), the
rejection is returned synchronously — the cohort reports the abort to
its coordinator exactly like a BTO timestamp rejection.
"""

from __future__ import annotations

from typing import List

from repro.cc.base import CCAlgorithm, CCContext, CCResponse
from repro.cc.locking_common import LockingNodeManager
from repro.cc.locks import LockRequest
from repro.core.transaction import Transaction

__all__ = ["WaitDie", "WaitDieNodeManager"]


class WaitDieNodeManager(LockingNodeManager):
    """Wait-die node manager: younger requesters die on conflict."""

    upgrades_jump_queue = False

    def on_conflict(
        self,
        request: LockRequest,
        conflict_set: List[Transaction],
    ) -> CCResponse:
        """Die if anyone the request waits for is older, else block."""
        me = request.transaction
        assert me.timestamp is not None
        conflicts_with_older = any(
            other.timestamp is not None
            and other.timestamp < me.timestamp
            for other in conflict_set
        )
        if conflicts_with_older:
            # The requester is younger than someone it would wait for:
            # it dies.  Only the new request is withdrawn; locks
            # already held stay held until the abort protocol reaches
            # this node.
            self.locks.cancel_request(request)
            return CCResponse.rejected()
        # Every conflict is younger: the (older) requester waits.
        return CCResponse.blocked(request.event)


class WaitDie(CCAlgorithm):
    """Wait-die deadlock prevention (extension algorithm)."""

    name = "wd"

    def make_node_manager(
        self, node_id: int, context: CCContext
    ) -> WaitDieNodeManager:
        """Create the wait-die manager for one node."""
        return WaitDieNodeManager(node_id, context)
