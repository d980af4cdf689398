"""Immediate-restart locking (extension; the "no waiting" point of the
blocking/restart spectrum studied in Agrawal, Carey & Livny, TODS 1987).

The paper's four algorithms occupy different points between "resolve
conflicts by blocking" (2PL) and "resolve conflicts by aborting" (OPT).
The companion ACL87 study's *immediate-restart* policy is the extreme
abort end of the locking family: a lock request that cannot be granted
immediately is never queued — the requesting transaction aborts on the
spot and reruns after the usual restart delay.  Included as an
extension so the full spectrum can be swept with this simulator; it is
not one of the paper's algorithms.

No deadlocks are possible (nobody ever waits), so there is no detector
and no wound machinery; the rejection travels back through the same
local-reject path BTO uses.
"""

from __future__ import annotations

from typing import List

from repro.cc.base import CCAlgorithm, CCContext, CCResponse
from repro.cc.locking_common import LockingNodeManager
from repro.cc.locks import LockRequest
from repro.core.transaction import Transaction

__all__ = ["ImmediateRestart", "ImmediateRestartNodeManager"]


class ImmediateRestartNodeManager(LockingNodeManager):
    """Lock manager that rejects instead of queueing."""

    upgrades_jump_queue = False

    def on_conflict(
        self,
        request: LockRequest,
        conflict_set: List[Transaction],
    ) -> CCResponse:
        """Withdraw the request at once and reject it."""
        self.locks.cancel_request(request)
        return CCResponse.rejected()


class ImmediateRestart(CCAlgorithm):
    """Immediate-restart ("no waiting") locking."""

    name = "ir"

    def make_node_manager(
        self, node_id: int, context: CCContext
    ) -> ImmediateRestartNodeManager:
        """Create the immediate-restart manager for one node."""
        return ImmediateRestartNodeManager(node_id, context)
