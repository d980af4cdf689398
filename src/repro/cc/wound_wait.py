"""Distributed wound-wait locking (paper §2.3, [Rose78]).

Identical to 2PL except in how deadlock is handled: it is *prevented*
with startup timestamps.  When a cohort's lock request conflicts, every
*younger* transaction it would wait for is "wounded" — aborted, unless
it is already in the second phase of its commit protocol, in which case
the wound is not fatal and is simply ignored.  The requester then waits
as usual.  Younger transactions are always permitted to wait for older
ones.

Two implementation choices keep the schedule provably deadlock-free:

* The wound test is applied against the full conflict set — conflicting
  *holders* and conflicting requests *queued ahead* — because with FIFO
  grants a waiter really does wait for both.
* Read-to-write conversions queue at the back rather than jumping the
  queue.  Jumping would create "older waits for younger" edges behind
  the upgrader's back without a wound test ever seeing them.

With those rules every wait edge points from a younger to an older
transaction (or to one already committing, which never waits), so no
cycle can form.  Restarted transactions keep their original startup
timestamp, which guarantees that every transaction eventually becomes
the oldest and cannot be wounded — the classic wound-wait liveness
argument.
"""

from __future__ import annotations

from typing import List

from repro.cc.base import CCAlgorithm, CCContext, CCResponse
from repro.cc.locking_common import LockingNodeManager
from repro.cc.locks import LockRequest
from repro.core.transaction import Transaction

__all__ = ["WoundWait", "WoundWaitNodeManager"]


class WoundWaitNodeManager(LockingNodeManager):
    """Wound-wait node manager."""

    upgrades_jump_queue = False

    def on_conflict(
        self,
        request: LockRequest,
        conflict_set: List[Transaction],
    ) -> CCResponse:
        """Wound every younger transaction the request waits for, then
        block."""
        me = request.transaction
        assert me.timestamp is not None
        for other in conflict_set:
            if other.timestamp is None:
                continue
            if other.timestamp > me.timestamp:
                # Other is younger.  The wound is non-fatal if the
                # victim is already in the second phase of its commit
                # protocol; request_abort re-checks at delivery time,
                # but skipping early avoids pointless messages.
                if not other.in_second_commit_phase:
                    self.context.request_abort(
                        other, "wound", self.node_id
                    )
        return CCResponse.blocked(request.event)


class WoundWait(CCAlgorithm):
    """Distributed wound-wait."""

    name = "ww"

    def make_node_manager(
        self, node_id: int, context: CCContext
    ) -> WoundWaitNodeManager:
        """Create the wound-wait manager for one node."""
        return WoundWaitNodeManager(node_id, context)
