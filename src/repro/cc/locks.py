"""Page-level lock table shared by the locking algorithms (2PL, WW).

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

The table exposes the conflict set at request time (so wound-wait can
wound), fires blocked requests' events on grant, and produces
transaction-level waits-for edges for deadlock detection.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING, Dict, List, Optional, Set, \
    Tuple

from repro.cc.base import RequestResult
from repro.core.database import PageId
from repro.core.transaction import Cohort, Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment, Event

__all__ = ["LockManager", "LockMode", "LockRequest"]


class LockMode(IntEnum):
    """Lock modes; EXCLUSIVE conflicts with everything."""

    SHARED = 0
    EXCLUSIVE = 1


def _conflicts(a: LockMode, b: LockMode) -> bool:
    return a is LockMode.EXCLUSIVE or b is LockMode.EXCLUSIVE


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
    ):
        self.env = env
        self.upgrades_jump_queue = upgrades_jump_queue
        self._table: Dict[PageId, _LockEntry] = {}
        self._held: Dict[Transaction, Set[PageId]] = {}
        self._waiting: Dict[Transaction, List[LockRequest]] = {}

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
        transaction never has two outstanding requests on one page;
        violating that is a caller bug and raises immediately rather
        than corrupting the queue.
        """
        san = self.env._san
        if san is not None:
            san.write(("lock", self))
        txn = cohort.transaction
        entry = self._table.get(page)
        if entry is None:
            entry = _LockEntry()
            self._table[page] = entry
        if entry.queue and any(
            queued.transaction is txn for queued in entry.queue
        ):
            raise RuntimeError(
                f"transaction {txn.tid} already has a queued "
                f"request on {page}"
            )
        held = entry.holders.get(txn)
        is_upgrade = False
        if mode is LockMode.SHARED:
            if held is not None:
                return True, None, []
            if not entry.queue and self._shared_grantable(entry):
                self._grant_holder(entry, txn, page, LockMode.SHARED)
                return True, None, []
        else:
            if held is LockMode.EXCLUSIVE:
                return True, None, []
            if held is LockMode.SHARED:
                is_upgrade = True
                if len(entry.holders) == 1 and not (
                    entry.queue and self._upgrade_ahead(entry, txn)
                ):
                    entry.holders[txn] = LockMode.EXCLUSIVE
                    return True, None, []
            elif not entry.holders and not entry.queue:
                self._grant_holder(entry, txn, page, LockMode.EXCLUSIVE)
                return True, None, []
        request = LockRequest(
            cohort, page, mode, self.env.event(), is_upgrade
        )
        position = self._enqueue(entry, request)
        conflict_set = self._conflict_set(entry, request, position)
        self._waiting.setdefault(txn, []).append(request)
        return False, request, conflict_set

    def _shared_grantable(self, entry: _LockEntry) -> bool:
        no_exclusive_holder = all(
            mode is LockMode.SHARED for mode in entry.holders.values()
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

    def _conflict_set(
        self, entry: _LockEntry, request: LockRequest, position: int
    ) -> List[Transaction]:
        txn = request.transaction
        conflicts: List[Transaction] = []
        # Holders iterate in grant order; the conflict set preserves
        # it on purpose — wound-wait's wound order is documented as
        # following the grant history, not a sorted key.
        for holder, mode in entry.holders.items():  # simlint: ignore[unordered-iteration]
            if holder is txn:
                continue
            if _conflicts(request.mode, mode):
                conflicts.append(holder)
        for ahead in entry.queue[:position]:
            if ahead.transaction is txn:
                continue
            if _conflicts(request.mode, ahead.mode):
                if ahead.transaction not in conflicts:
                    conflicts.append(ahead.transaction)
        return conflicts

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def cancel_request(self, request: LockRequest) -> None:
        """Withdraw a single queued request (its event never fires).

        Used by wait-die when a requester "dies": only the new request
        is withdrawn — locks the transaction already holds stay held
        until the abort protocol reaches this node.
        """
        san = self.env._san
        if san is not None:
            san.write(("lock", self))
        entry = self._table.get(request.page)
        if entry is not None and request in entry.queue:
            entry.queue.remove(request)
            self._forget_waiting(request)
            self._grant_pass(request.page)

    def release_all(self, txn: Transaction) -> None:
        """Drop every lock and queued request of ``txn`` at this node."""
        san = self.env._san
        if san is not None:
            san.write(("lock", self))
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
        for request in self._waiting.pop(txn, []):
            entry = self._table.get(request.page)
            if entry is not None and request in entry.queue:
                entry.queue.remove(request)
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
                entry.holders[txn] = LockMode.EXCLUSIVE
            elif request.mode is LockMode.SHARED:
                if any(
                    mode is LockMode.EXCLUSIVE
                    for mode in entry.holders.values()
                ):
                    break
                entry.queue.pop(0)
                self._grant_holder(
                    entry, txn, page, LockMode.SHARED
                )
            else:
                if entry.holders:
                    break
                entry.queue.pop(0)
                self._grant_holder(
                    entry, txn, page, LockMode.EXCLUSIVE
                )
            self._forget_waiting(request)
            request.event.succeed(RequestResult.GRANTED)
        if not entry.holders and not entry.queue:
            del self._table[page]

    def _forget_waiting(self, request: LockRequest) -> None:
        pending = self._waiting.get(request.transaction)
        if pending is not None:
            try:
                pending.remove(request)
            except ValueError:
                pass
            if not pending:
                del self._waiting[request.transaction]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def waits_for_edges(
        self,
    ) -> List[Tuple[Transaction, Transaction]]:
        """Transaction-level (waiter, holder) edges at this node.

        A queued request waits for every conflicting holder and every
        conflicting request queued ahead of it (grants are FIFO, so the
        ahead-of-me edges are real).
        """
        san = self.env._san
        if san is not None:
            san.read(("lock", self))
        edges: List[Tuple[Transaction, Transaction]] = []
        exclusive = LockMode.EXCLUSIVE
        append = edges.append
        # This runs on every conflict under local detection (2PL), so
        # entries with no waiters — the vast majority — are skipped
        # outright and the conflict test is inlined.  Table and holder
        # order (insertion order: page first touched / lock granted)
        # is the deadlock detector's documented edge order; sorting
        # here would change victim tie-breaks and every golden figure.
        for entry in self._table.values():  # simlint: ignore[unordered-iteration]
            queue = entry.queue
            if not queue:
                continue
            holders = entry.holders
            for position, request in enumerate(queue):
                waiter = request.transaction
                is_exclusive = request.mode is exclusive
                for holder, mode in holders.items():  # simlint: ignore[unordered-iteration]
                    if holder is not waiter and (
                        is_exclusive or mode is exclusive
                    ):
                        append((waiter, holder))
                for index in range(position):
                    ahead = queue[index]
                    other = ahead.transaction
                    if other is not waiter and (
                        is_exclusive or ahead.mode is exclusive
                    ):
                        append((waiter, other))
        return edges

    def holds_any(self, txn: Transaction) -> bool:
        """Whether ``txn`` currently holds any lock at this node."""
        return bool(self._held.get(txn))

    def is_waiting(self, txn: Transaction) -> bool:
        """Whether ``txn`` has a queued request at this node."""
        return bool(self._waiting.get(txn))

    def assert_consistent(self) -> None:
        """Internal invariant checks, used by the test suite.

        Pages are visited in sorted order so the first assertion to
        fire is the same one on every run.
        """
        for page in sorted(self._table):
            entry = self._table[page]
            exclusive = sum(
                1 for m in entry.holders.values()
                if m is LockMode.EXCLUSIVE
            )
            if exclusive and len(entry.holders) > 1:
                raise AssertionError(
                    f"exclusive lock shared on {page}: {entry.holders}"
                )
            for request in entry.queue:
                if request.transaction in entry.holders and not (
                    request.is_upgrade
                    or entry.holders[request.transaction]
                    is LockMode.SHARED
                ):
                    raise AssertionError(
                        f"holder queued non-upgrade on {page}"
                    )
