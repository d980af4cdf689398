"""Page-level lock table shared by the locking algorithms (2PL, WW, WD, IR).

Semantics follow the paper's §2.2: read locks are shared, write locks
exclusive, and a cohort that updates a page *converts* its read lock to
a write lock (an upgrade).  Grants are FIFO with one policy choice left
to the algorithm:

* ``upgrades_jump_queue=True`` (2PL) — a conversion request is placed
  ahead of ordinary waiters, the usual lock manager practice.  The
  resulting upgrade-upgrade deadlocks are the detector's job.
* ``upgrades_jump_queue=False`` (wound-wait) — conversions queue at the
  back.  Combined with wound-wait's rule of wounding every younger
  conflicting transaction at insertion time, all wait edges then point
  from younger to older transactions, which is what makes the schedule
  provably deadlock-free.

Every request goes through :meth:`LockManager.acquire`.  Almost all
requests are granted at once (95.7 % at the paper's saturated 8-node
point, most of them on a page nobody has locked), so ``acquire``
settles those with one table lookup and returns the shared granted
:class:`~repro.cc.base.CCResponse`.  A request that must wait is
queued, and the algorithm's ``on_conflict`` hook, given the request
and its conflict set, decides the response: block (2PL, wound-wait
after wounding), or withdraw the request and reject (wait-die's
younger requester, immediate restart).

The table fires blocked requests' events on grant and answers whom a
waiting transaction waits for: one transaction at a time for 2PL's
local detector, or as the node's whole edge list for the Snoop.
"""

from __future__ import annotations

from enum import IntEnum
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.cc.base import CCResponse, RequestResult
from repro.core.database import PageId
from repro.core.transaction import Cohort, Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment, Event

__all__ = ["LockManager", "LockMode", "LockRequest"]


class LockMode(IntEnum):
    """Lock modes; EXCLUSIVE conflicts with everything."""

    SHARED = 0
    EXCLUSIVE = 1


# Module constants are cheaper lookups than Enum members.
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE
_GRANTED = RequestResult.GRANTED
_GRANTED_RESPONSE = CCResponse.granted()


class LockRequest:
    """A waiting lock request."""

    __slots__ = (
        "cohort", "transaction", "mode", "event", "is_upgrade", "page"
    )

    def __init__(
        self,
        cohort: Cohort,
        page: PageId,
        mode: LockMode,
        event: "Event",
        is_upgrade: bool,
    ):
        self.cohort = cohort
        #: The requesting transaction.
        self.transaction: Transaction = cohort.transaction
        self.page = page
        self.mode = mode
        self.event = event
        self.is_upgrade = is_upgrade


class _LockEntry:
    """One locked page: its holders and its queue.

    ``holders`` maps each holder to its mode in grant order; an
    exclusive holder is always alone.  ``stamp`` numbers the entries in
    the order the table made them, which is the table's key order.
    :meth:`LockManager.acquire` fills the slots when it makes an entry,
    so making one runs no Python frame.
    """

    __slots__ = ("holders", "queue", "stamp")

    holders: Dict[Transaction, LockMode]
    queue: List[LockRequest]
    stamp: int


_stamp_of = attrgetter("stamp")

#: ``on_conflict(request, conflict_set)``: the response to a request
#: the table has just queued.
ConflictPolicy = Callable[[LockRequest, List[Transaction]], CCResponse]


class LockManager:
    """A per-node lock table over pages."""

    def __init__(
        self,
        env: "Environment",
        upgrades_jump_queue: bool,
        on_conflict: ConflictPolicy,
    ):
        self.env = env
        self.upgrades_jump_queue = upgrades_jump_queue
        self.on_conflict = on_conflict
        self._table: Dict[PageId, _LockEntry] = {}
        # Each transaction's held pages, mapped to their entries.
        self._held: Dict[Transaction, Dict[PageId, _LockEntry]] = {}
        # A transaction's one queued request at this node: its cohort
        # blocks on that request until it resolves.
        self._waiting: Dict[Transaction, LockRequest] = {}
        self._entries_made = 0

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def acquire(
        self, cohort: Cohort, page: PageId, mode: LockMode
    ) -> CCResponse:
        """Request ``page`` in ``mode`` for ``cohort``.

        A request granted at once returns the shared granted response:
        on a page with no entry yet, a page the transaction already
        holds strongly enough, a shared request that no exclusive
        holder or waiter stands in front of, or the sole holder's
        upgrade.  Otherwise the request is queued (its event will fire
        with a :class:`RequestResult`) and ``on_conflict`` gets it with
        its conflict set, the distinct transactions it waits for
        (conflicting holders, then conflicting requests queued ahead
        of it), and returns the response.

        Contract: a cohort blocks on its pending request, so a
        transaction has at most one queued request at this node (the
        local deadlock search relies on it); a second request while
        one is queued is a caller bug and raises immediately rather
        than corrupting the queue.
        """
        txn = cohort.transaction
        if txn in self._waiting:
            raise RuntimeError(
                f"transaction {txn.tid} already has a queued "
                f"request on {self._waiting[txn].page}"
            )
        entry = self._table.get(page)
        if entry is None:
            entry = _LockEntry()
            entry.holders = {txn: mode}
            entry.queue = []
            entry.stamp = self._entries_made
            self._entries_made += 1
            self._table[page] = entry
        else:
            holders = entry.holders
            held = holders.get(txn)
            if mode is _SHARED:
                if held is not None:
                    return _GRANTED_RESPONSE
                if entry.queue or _EXCLUSIVE in holders.values():
                    return self._wait(cohort, page, mode, entry, False)
                holders[txn] = _SHARED
            elif held is _EXCLUSIVE:
                return _GRANTED_RESPONSE
            elif held is _SHARED:
                # Every queued upgrade's transaction holds the page,
                # so a sole holder has no upgrade queued ahead of it.
                if len(holders) != 1:
                    return self._wait(cohort, page, mode, entry, True)
                holders[txn] = _EXCLUSIVE
                return _GRANTED_RESPONSE
            elif holders or entry.queue:
                return self._wait(cohort, page, mode, entry, False)
            else:
                holders[txn] = _EXCLUSIVE
        self._held.setdefault(txn, {})[page] = entry
        return _GRANTED_RESPONSE

    def _wait(
        self,
        cohort: Cohort,
        page: PageId,
        mode: LockMode,
        entry: _LockEntry,
        is_upgrade: bool,
    ) -> CCResponse:
        """Queue a request that cannot be granted; ask the policy."""
        request = LockRequest(
            cohort, page, mode, self.env.event(), is_upgrade
        )
        position = self._enqueue(entry, request)
        self._waiting[request.transaction] = request
        return self.on_conflict(
            request, self._blockers(entry, position)
        )

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
            for holder, mode in entry.holders.items()  # simlint: ignore[unordered-iteration]
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

        Used by wait-die when a requester "dies", and by immediate
        restart for every conflict: only the new request is withdrawn
        — locks the transaction already holds stay held until the
        abort protocol reaches this node.
        """
        entry = self._table.get(request.page)
        if entry is not None and request in entry.queue:
            entry.queue.remove(request)
            del self._waiting[request.transaction]
            self._grant_pass(request.page, entry)

    def release_all(self, txn: Transaction) -> None:
        """Drop every lock and queued request of ``txn`` at this node.

        One pass over the held pages drops ``txn`` from each page's
        holders and deletes the entries left with neither holders nor
        waiters.  Grant passes then run only where someone waits: the
        held pages with waiters in sorted page order (``PageId`` orders
        by (relation, partition, page)), then the page of ``txn``'s own
        queued request.  A grant pass fires events in the order pages
        are visited, so iterating the held pages directly would make
        wakeup order depend on grant history; a page nobody waits on
        fires nothing, so this is the wakeup order of visiting every
        released page in sorted order.
        """
        table = self._table
        waited: List[PageId] = []
        held = self._held.pop(txn, None)
        if held is not None:
            # Order-free: each step touches only its own page's entry.
            for page, entry in held.items():  # simlint: ignore[unordered-iteration]
                holders = entry.holders
                del holders[txn]
                if entry.queue:
                    waited.append(page)
                elif not holders:
                    del table[page]
            waited.sort()
        request = self._waiting.pop(txn, None)
        if request is not None:
            page = request.page
            table[page].queue.remove(request)
            # A queued upgrade's page is held, so it is already listed.
            if held is None or page not in held:
                waited.append(page)
        for page in waited:
            self._grant_pass(page, table[page])

    def _grant_pass(self, page: PageId, entry: _LockEntry) -> None:
        """Grant now-compatible requests from the head of the queue."""
        holders = entry.holders
        queue = entry.queue
        while queue:
            request = queue[0]
            txn = request.transaction
            if request.is_upgrade or txn in holders:
                if len(holders) != 1 or txn not in holders:
                    break
                holders[txn] = _EXCLUSIVE
            else:
                if request.mode is _SHARED:
                    if _EXCLUSIVE in holders.values():
                        break
                elif holders:
                    break
                holders[txn] = request.mode
                self._held.setdefault(txn, {})[page] = entry
            del queue[0]
            del self._waiting[txn]
            request.event.succeed(_GRANTED)
        if not holders and not queue:
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

        Pages in table order (the order their entries were made: page
        first touched since it was last free), then each queued
        request's :meth:`_blockers`.  Only pages with waiters have
        edges, and every queued request is some transaction's pending
        one, so the walk visits just those pages' entries.
        """
        table = self._table
        queued = sorted(
            {table[request.page] for request in self._waiting.values()},
            key=_stamp_of,
        )
        edges: List[Tuple[Transaction, Transaction]] = []
        for entry in queued:
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
        order = list(self._table)
        if order != sorted(order, key=lambda p: self._table[p].stamp):
            raise AssertionError("entry stamps out of table order")
        for page in sorted(self._table):
            entry = self._table[page]
            queued += len(entry.queue)
            if not entry.holders and not entry.queue:
                raise AssertionError(f"empty entry kept for {page}")
            exclusive = sum(
                1 for m in entry.holders.values()
                if m is _EXCLUSIVE
            )
            if exclusive and len(entry.holders) > 1:
                raise AssertionError(
                    f"exclusive lock shared on {page}: {entry.holders}"
                )
            for holder in sorted(entry.holders, key=attrgetter("tid")):
                if self._held.get(holder, {}).get(page) is not entry:
                    raise AssertionError(
                        f"{holder} holds {page} but does not list it"
                    )
            for request in entry.queue:
                if self._waiting.get(request.transaction) is not request:
                    raise AssertionError(
                        f"queued request on {page} is not "
                        f"{request.transaction}'s pending one"
                    )
                if request.is_upgrade and (
                    request.transaction not in entry.holders
                ):
                    raise AssertionError(
                        f"upgrade queued on {page} by a non-holder"
                    )
                if request.transaction in entry.holders and not (
                    request.is_upgrade
                    or entry.holders[request.transaction]
                    is _SHARED
                ):
                    raise AssertionError(
                        f"holder queued non-upgrade on {page}"
                    )
        held = sum(len(pages) for pages in self._held.values())
        holders = sum(
            len(entry.holders) for entry in self._table.values()
        )
        if held != holders:
            raise AssertionError(
                f"{held} held pages listed but {holders} holders"
            )
        if queued != len(self._waiting):
            raise AssertionError(
                f"{queued} queued requests but {len(self._waiting)} "
                f"waiting transactions"
            )
