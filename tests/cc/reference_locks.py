"""The lock table as it stood before the single-lookup request path.

A reference for ``test_lock_table_reference.py``: the simulator's
:class:`repro.cc.locks.LockManager` must make the same grants, fire
request events in the same order and report the same conflict sets,
wait edges and table order as this one on every history.  It differs
from the original only in its return shape: :meth:`acquire` hands a
queued request and its conflict set to ``on_conflict`` and returns
what that returns, like the simulator's table, so the two can be
driven side by side.

Otherwise the code is the original's, line for line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, \
    Tuple

from repro.cc.base import CCResponse, RequestResult
from repro.cc.locks import LockMode
from repro.core.database import PageId
from repro.core.transaction import Cohort, Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment, Event

__all__ = ["LockManager", "LockMode", "LockRequest"]


# Module constants are cheaper lookups than Enum members.
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE
_GRANTED = RequestResult.GRANTED
_GRANTED_RESPONSE = CCResponse.granted()


class LockRequest:
    """A waiting lock request."""

    __slots__ = ("cohort", "mode", "event", "is_upgrade", "page")

    def __init__(
        self,
        cohort: Cohort,
        page: PageId,
        mode: LockMode,
        event: "Event",
        is_upgrade: bool,
    ):
        self.cohort = cohort
        self.page = page
        self.mode = mode
        self.event = event
        self.is_upgrade = is_upgrade

    @property
    def transaction(self) -> Transaction:
        """The requesting transaction."""
        return self.cohort.transaction


class _LockEntry:
    __slots__ = ("holders", "queue")

    def __init__(self):
        self.holders: Dict[Transaction, LockMode] = {}
        self.queue: List[LockRequest] = []


class LockManager:
    """A per-node lock table over pages."""

    def __init__(
        self,
        env: "Environment",
        upgrades_jump_queue: bool,
        on_conflict,
    ):
        self.env = env
        self.upgrades_jump_queue = upgrades_jump_queue
        self.on_conflict = on_conflict
        self._table: Dict[PageId, _LockEntry] = {}
        self._held: Dict[Transaction, Set[PageId]] = {}
        # A transaction's one queued request at this node: its cohort
        # blocks on that request until it resolves.
        self._waiting: Dict[Transaction, LockRequest] = {}

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def acquire(
        self, cohort: Cohort, page: PageId, mode: LockMode
    ) -> Tuple[bool, Optional[LockRequest], List[Transaction]]:
        """Try to acquire ``page`` in ``mode`` for ``cohort``.

        Returns ``(granted, request, conflict_set)``.  When granted,
        ``request`` is None.  When not granted, the request has been
        queued (its event will fire with a :class:`RequestResult`), and
        ``conflict_set`` lists the distinct transactions it waits for —
        conflicting holders plus conflicting requests queued ahead of
        it — which wound-wait uses for its wound test.

        Contract: a cohort blocks on its pending request, so a
        transaction has at most one queued request at this node (the
        local deadlock search relies on it); a second request while
        one is queued is a caller bug and raises immediately rather
        than corrupting the queue.
        """
        txn = cohort.transaction
        pending = self._waiting.get(txn)
        if pending is not None:
            raise RuntimeError(
                f"transaction {txn.tid} already has a queued "
                f"request on {pending.page}"
            )
        entry = self._table.get(page)
        if entry is None:
            entry = _LockEntry()
            self._table[page] = entry
        held = entry.holders.get(txn)
        is_upgrade = False
        if mode is _SHARED:
            if held is not None:
                return _GRANTED_RESPONSE
            if not entry.queue and self._shared_grantable(entry):
                self._grant_holder(entry, txn, page, _SHARED)
                return _GRANTED_RESPONSE
        else:
            if held is _EXCLUSIVE:
                return _GRANTED_RESPONSE
            if held is _SHARED:
                is_upgrade = True
                if len(entry.holders) == 1 and not (
                    entry.queue and self._upgrade_ahead(entry, txn)
                ):
                    entry.holders[txn] = _EXCLUSIVE
                    return _GRANTED_RESPONSE
            elif not entry.holders and not entry.queue:
                self._grant_holder(entry, txn, page, _EXCLUSIVE)
                return _GRANTED_RESPONSE
        request = LockRequest(
            cohort, page, mode, self.env.event(), is_upgrade
        )
        position = self._enqueue(entry, request)
        self._waiting[txn] = request
        return self.on_conflict(request, self._blockers(entry, position))

    def _shared_grantable(self, entry: _LockEntry) -> bool:
        no_exclusive_holder = all(
            mode is _SHARED for mode in entry.holders.values()
        )
        return no_exclusive_holder and not entry.queue

    def _upgrade_ahead(
        self, entry: _LockEntry, txn: Transaction
    ) -> bool:
        return any(
            r.is_upgrade and r.transaction is not txn
            for r in entry.queue
        )

    def _grant_holder(
        self,
        entry: _LockEntry,
        txn: Transaction,
        page: PageId,
        mode: LockMode,
    ) -> None:
        entry.holders[txn] = mode
        self._held.setdefault(txn, set()).add(page)

    def _enqueue(
        self, entry: _LockEntry, request: LockRequest
    ) -> int:
        """Insert the request; returns its queue position."""
        if request.is_upgrade and self.upgrades_jump_queue:
            position = 0
            while (
                position < len(entry.queue)
                and entry.queue[position].is_upgrade
            ):
                position += 1
            entry.queue.insert(position, request)
            return position
        entry.queue.append(request)
        return len(entry.queue) - 1

    @staticmethod
    def _blockers(
        entry: _LockEntry, position: int
    ) -> List[Transaction]:
        """The distinct transactions ``entry.queue[position]`` waits for.

        Conflicting holders in grant order, then conflicting requests
        queued ahead of it (grants are FIFO, so those edges are real).
        This order is the conflict set's (wound-wait wounds in grant
        order, not by a sorted key) and the deadlock searches' edge
        order; sorting here would change victim tie-breaks and every
        golden figure.
        """
        queue = entry.queue
        request = queue[position]
        waiter = request.transaction
        is_exclusive = request.mode is _EXCLUSIVE
        blockers = [
            holder
            for holder, mode in entry.holders.items()
            if holder is not waiter
            and (is_exclusive or mode is _EXCLUSIVE)
        ]
        for index in range(position):
            ahead = queue[index]
            other = ahead.transaction
            if (
                other is not waiter
                and (is_exclusive or ahead.mode is _EXCLUSIVE)
                and other not in blockers
            ):
                blockers.append(other)
        return blockers

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def cancel_request(self, request: LockRequest) -> None:
        """Withdraw a single queued request (its event never fires).

        Used by wait-die when a requester "dies": only the new request
        is withdrawn — locks the transaction already holds stay held
        until the abort protocol reaches this node.
        """
        entry = self._table.get(request.page)
        if entry is not None and request in entry.queue:
            entry.queue.remove(request)
            del self._waiting[request.transaction]
            self._grant_pass(request.page)

    def release_all(self, txn: Transaction) -> None:
        """Drop every lock and queued request of ``txn`` at this node."""
        touched: List[PageId] = []
        # The grant pass fires blocked requests' events in the order
        # pages are visited, so iterating the held-set directly would
        # make wakeup order hash-dependent; sort for an explicit,
        # reproducible tie-break (PageId orders by
        # (relation, partition, page)).
        for page in sorted(self._held.pop(txn, set())):
            entry = self._table[page]
            entry.holders.pop(txn, None)
            touched.append(page)
        request = self._waiting.pop(txn, None)
        if request is not None:
            self._table[request.page].queue.remove(request)
            touched.append(request.page)
        # A page can appear twice (held + queued upgrade); the second
        # grant pass would find a settled entry and grant nothing, so
        # deduplicate while keeping first-occurrence order.
        seen: Set[PageId] = set()
        for page in touched:
            if page not in seen:
                seen.add(page)
                self._grant_pass(page)

    def _grant_pass(self, page: PageId) -> None:
        """Grant now-compatible requests from the head of the queue."""
        entry = self._table.get(page)
        if entry is None:
            return
        while entry.queue:
            request = entry.queue[0]
            txn = request.transaction
            if request.is_upgrade or txn in entry.holders:
                grantable = (
                    len(entry.holders) == 1 and txn in entry.holders
                )
                if not grantable:
                    break
                entry.queue.pop(0)
                entry.holders[txn] = _EXCLUSIVE
            elif request.mode is _SHARED:
                if any(
                    mode is _EXCLUSIVE
                    for mode in entry.holders.values()
                ):
                    break
                entry.queue.pop(0)
                self._grant_holder(
                    entry, txn, page, _SHARED
                )
            else:
                if entry.holders:
                    break
                entry.queue.pop(0)
                self._grant_holder(
                    entry, txn, page, _EXCLUSIVE
                )
            del self._waiting[txn]
            request.event.succeed(_GRANTED)
        if not entry.holders and not entry.queue:
            del self._table[page]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def waits_for(self, txn: Transaction) -> List[Transaction]:
        """Whom ``txn`` waits for at this node, in edge order.

        ``txn``'s out-neighbours in :meth:`waits_for_edges`: the
        blockers of its one queued request here, or nobody if it is
        not waiting.  Costs one request's queue, not the table.
        """
        request = self._waiting.get(txn)
        if request is None:
            return []
        entry = self._table[request.page]
        return self._blockers(entry, entry.queue.index(request))

    def waits_for_edges(
        self,
    ) -> List[Tuple[Transaction, Transaction]]:
        """Transaction-level (waiter, blocker) edges at this node.

        Pages in table order (insertion order: page first touched),
        then each queued request's :meth:`_blockers`.
        """
        edges: List[Tuple[Transaction, Transaction]] = []
        for entry in self._table.values():
            if not entry.queue:
                # Most entries have no waiters; skip them outright.
                continue
            for position, request in enumerate(entry.queue):
                waiter = request.transaction
                edges.extend(
                    (waiter, blocker)
                    for blocker in self._blockers(entry, position)
                )
        return edges

    def holds_any(self, txn: Transaction) -> bool:
        """Whether ``txn`` currently holds any lock at this node."""
        return bool(self._held.get(txn))

    def is_waiting(self, txn: Transaction) -> bool:
        """Whether ``txn`` has a queued request at this node."""
        return txn in self._waiting

    def assert_consistent(self) -> None:
        """Internal invariant checks, used by the test suite.

        Pages are visited in sorted order so the first assertion to
        fire is the same one on every run.
        """
        queued = 0
        for page in sorted(self._table):
            entry = self._table[page]
            queued += len(entry.queue)
            exclusive = sum(
                1 for m in entry.holders.values()
                if m is _EXCLUSIVE
            )
            if exclusive and len(entry.holders) > 1:
                raise AssertionError(
                    f"exclusive lock shared on {page}: {entry.holders}"
                )
            for request in entry.queue:
                if self._waiting.get(request.transaction) is not request:
                    raise AssertionError(
                        f"queued request on {page} is not "
                        f"{request.transaction}'s pending one"
                    )
                if request.transaction in entry.holders and not (
                    request.is_upgrade
                    or entry.holders[request.transaction]
                    is _SHARED
                ):
                    raise AssertionError(
                        f"holder queued non-upgrade on {page}"
                    )
        if queued != len(self._waiting):
            raise AssertionError(
                f"{queued} queued requests but {len(self._waiting)} "
                f"waiting transactions"
            )
