"""Tests for the page-level lock table."""

import pytest

from repro.cc.base import CCResponse, RequestResult
from repro.cc.locks import LockManager, LockMode

from tests.cc.conftest import page


class RecordingBlock:
    """A blocking ``on_conflict`` that keeps the last queued request
    and its conflict set."""

    def __init__(self):
        self.last = None

    def __call__(self, request, conflict_set):
        self.last = (request, conflict_set)
        return CCResponse.blocked(request.event)


def make_locks(env, upgrades_jump_queue):
    return LockManager(env, upgrades_jump_queue, RecordingBlock())


@pytest.fixture
def locks(env):
    return make_locks(env, upgrades_jump_queue=True)


def cohort_of(txn):
    return txn.cohort


def acquire(locks, cohort, page, mode):
    """One request through ``locks.acquire``, as ``(granted, queued
    request, conflict set)``; checks the response's shape."""
    locks.on_conflict.last = None
    response = locks.acquire(cohort, page, mode)
    if response.result is RequestResult.GRANTED:
        assert response is CCResponse.granted()
        assert locks.on_conflict.last is None
        return True, None, []
    request, conflicts = locks.on_conflict.last
    assert response.result is RequestResult.BLOCKED
    assert response.event is request.event
    return False, request, conflicts


class TestSharedLocks:
    def test_shared_granted_on_free_page(self, locks, new_txn):
        granted, request, conflicts = acquire(
            locks, cohort_of(new_txn()), page(1), LockMode.SHARED
        )
        assert granted
        assert request is None
        assert conflicts == []

    def test_shared_locks_compatible(self, locks, new_txn):
        acquire(locks, cohort_of(new_txn()), page(1), LockMode.SHARED)
        granted, _, _ = acquire(
            locks, cohort_of(new_txn()), page(1), LockMode.SHARED
        )
        assert granted

    def test_reacquiring_shared_is_noop(self, locks, new_txn):
        txn = new_txn()
        acquire(locks, cohort_of(txn), page(1), LockMode.SHARED)
        granted, _, _ = acquire(
            locks, cohort_of(txn), page(1), LockMode.SHARED
        )
        assert granted

    def test_shared_blocked_by_exclusive_holder(self, locks, new_txn):
        writer, reader = new_txn(), new_txn()
        acquire(locks, cohort_of(writer), page(1), LockMode.EXCLUSIVE)
        granted, request, conflicts = acquire(
            locks, cohort_of(reader), page(1), LockMode.SHARED
        )
        assert not granted
        assert conflicts == [writer]

    def test_shared_queues_behind_waiting_exclusive(self, locks,
                                                    new_txn):
        """FIFO: a reader must not starve a queued writer."""
        holder, writer, reader = new_txn(), new_txn(), new_txn()
        acquire(locks, cohort_of(holder), page(1), LockMode.SHARED)
        acquire(locks, cohort_of(writer), page(1), LockMode.EXCLUSIVE)
        granted, _, conflicts = acquire(
            locks, cohort_of(reader), page(1), LockMode.SHARED
        )
        assert not granted
        assert writer in conflicts


class TestExclusiveLocks:
    def test_exclusive_granted_on_free_page(self, locks, new_txn):
        granted, _, _ = acquire(
            locks, cohort_of(new_txn()), page(1), LockMode.EXCLUSIVE
        )
        assert granted

    def test_exclusive_blocked_by_shared_holder(self, locks, new_txn):
        reader, writer = new_txn(), new_txn()
        acquire(locks, cohort_of(reader), page(1), LockMode.SHARED)
        granted, _, conflicts = acquire(
            locks, cohort_of(writer), page(1), LockMode.EXCLUSIVE
        )
        assert not granted
        assert conflicts == [reader]

    def test_reacquiring_exclusive_is_noop(self, locks, new_txn):
        txn = new_txn()
        acquire(locks, cohort_of(txn), page(1), LockMode.EXCLUSIVE)
        granted, _, _ = acquire(
            locks, cohort_of(txn), page(1), LockMode.EXCLUSIVE
        )
        assert granted


class TestUpgrades:
    def test_sole_holder_upgrades_immediately(self, locks, new_txn):
        txn = new_txn()
        acquire(locks, cohort_of(txn), page(1), LockMode.SHARED)
        granted, _, _ = acquire(
            locks, cohort_of(txn), page(1), LockMode.EXCLUSIVE
        )
        assert granted

    def test_upgrade_waits_for_other_readers(self, locks, new_txn):
        a, b = new_txn(), new_txn()
        acquire(locks, cohort_of(a), page(1), LockMode.SHARED)
        acquire(locks, cohort_of(b), page(1), LockMode.SHARED)
        granted, request, conflicts = acquire(
            locks, cohort_of(a), page(1), LockMode.EXCLUSIVE
        )
        assert not granted
        assert request.is_upgrade
        assert conflicts == [b]

    def test_upgrade_granted_when_other_reader_releases(
        self, env, locks, new_txn
    ):
        a, b = new_txn(), new_txn()
        acquire(locks, cohort_of(a), page(1), LockMode.SHARED)
        acquire(locks, cohort_of(b), page(1), LockMode.SHARED)
        _, request, _ = acquire(
            locks, cohort_of(a), page(1), LockMode.EXCLUSIVE
        )
        results = []

        def waiter():
            value = yield request.event
            results.append(value)

        env.process(waiter())
        locks.release_all(cohort_of(b).transaction)
        env.run()
        assert results == [RequestResult.GRANTED]

    def test_upgrade_jumps_ahead_of_plain_waiters(self, env, locks,
                                                  new_txn):
        holder, other_reader, writer = new_txn(), new_txn(), new_txn()
        acquire(locks, cohort_of(holder), page(1), LockMode.SHARED)
        acquire(
            locks, cohort_of(other_reader), page(1), LockMode.SHARED
        )
        # Plain exclusive waiter queues first.
        acquire(locks, cohort_of(writer), page(1), LockMode.EXCLUSIVE)
        # Holder's upgrade then jumps ahead of it.
        _, upgrade, _ = acquire(
            locks, cohort_of(holder), page(1), LockMode.EXCLUSIVE
        )
        order = []

        def wait_for(tag, request):
            yield request.event
            order.append(tag)

        env.process(wait_for("upgrade", upgrade))
        locks.release_all(other_reader)
        env.run()
        assert order == ["upgrade"]

    def test_back_queue_policy_keeps_fifo(self, env, new_txn):
        locks = make_locks(env, upgrades_jump_queue=False)
        a, b, writer = new_txn(), new_txn(), new_txn()
        acquire(locks, cohort_of(a), page(1), LockMode.SHARED)
        acquire(locks, cohort_of(b), page(1), LockMode.SHARED)
        _, w_request, _ = acquire(
            locks, cohort_of(writer), page(1), LockMode.EXCLUSIVE
        )
        _, upgrade, conflicts = acquire(
            locks, cohort_of(a), page(1), LockMode.EXCLUSIVE
        )
        # The upgrade queues behind the plain writer: it waits for b
        # (conflicting holder) and the writer ahead of it.
        assert b in conflicts
        assert writer in conflicts


class TestRelease:
    def test_release_grants_next_exclusive(self, env, locks, new_txn):
        a, b = new_txn(), new_txn()
        acquire(locks, cohort_of(a), page(1), LockMode.EXCLUSIVE)
        _, request, _ = acquire(
            locks, cohort_of(b), page(1), LockMode.EXCLUSIVE
        )
        fired = []

        def waiter():
            fired.append((yield request.event))

        env.process(waiter())
        locks.release_all(a)
        env.run()
        assert fired == [RequestResult.GRANTED]
        assert locks.holds_any(b)

    def test_release_grants_shared_batch(self, env, locks, new_txn):
        writer = new_txn()
        readers = [new_txn() for _ in range(3)]
        acquire(locks, cohort_of(writer), page(1), LockMode.EXCLUSIVE)
        events = []
        for reader in readers:
            _, request, _ = acquire(
                locks, cohort_of(reader), page(1), LockMode.SHARED
            )
            events.append(request.event)
        granted = []

        def waiter(index, event):
            yield event
            granted.append(index)

        for index, event in enumerate(events):
            env.process(waiter(index, event))
        locks.release_all(writer)
        env.run()
        assert sorted(granted) == [0, 1, 2]

    def test_release_removes_queued_requests(self, locks, new_txn):
        a, b = new_txn(), new_txn()
        acquire(locks, cohort_of(a), page(1), LockMode.EXCLUSIVE)
        acquire(locks, cohort_of(b), page(1), LockMode.EXCLUSIVE)
        assert locks.is_waiting(b)
        locks.release_all(b)
        assert not locks.is_waiting(b)
        # a still holds; nothing was granted to b.
        assert locks.holds_any(a)
        assert not locks.holds_any(b)

    def test_release_is_idempotent(self, locks, new_txn):
        txn = new_txn()
        acquire(locks, cohort_of(txn), page(1), LockMode.SHARED)
        locks.release_all(txn)
        locks.release_all(txn)  # must not raise
        assert not locks.holds_any(txn)

    def test_release_all_pages(self, locks, new_txn):
        txn = new_txn()
        for index in range(5):
            acquire(
                locks, cohort_of(txn), page(index), LockMode.SHARED
            )
        locks.release_all(txn)
        assert not locks.holds_any(txn)


class TestWaitsForEdges:
    def test_waiter_to_holder_edge(self, locks, new_txn):
        holder, waiter = new_txn(), new_txn()
        acquire(locks, cohort_of(holder), page(1), LockMode.EXCLUSIVE)
        acquire(locks, cohort_of(waiter), page(1), LockMode.EXCLUSIVE)
        assert (waiter, holder) in locks.waits_for_edges()

    def test_waiter_to_waiter_ahead_edge(self, locks, new_txn):
        holder, first, second = new_txn(), new_txn(), new_txn()
        acquire(locks, cohort_of(holder), page(1), LockMode.EXCLUSIVE)
        acquire(locks, cohort_of(first), page(1), LockMode.EXCLUSIVE)
        acquire(locks, cohort_of(second), page(1), LockMode.EXCLUSIVE)
        edges = locks.waits_for_edges()
        assert (second, first) in edges
        assert (second, holder) in edges

    def test_compatible_waiters_no_edge(self, locks, new_txn):
        holder, first, second = new_txn(), new_txn(), new_txn()
        acquire(locks, cohort_of(holder), page(1), LockMode.EXCLUSIVE)
        acquire(locks, cohort_of(first), page(1), LockMode.SHARED)
        acquire(locks, cohort_of(second), page(1), LockMode.SHARED)
        edges = locks.waits_for_edges()
        assert (second, first) not in edges

    def test_no_edges_when_uncontended(self, locks, new_txn):
        acquire(locks, cohort_of(new_txn()), page(1), LockMode.SHARED)
        assert locks.waits_for_edges() == []

    def test_double_request_same_page_rejected(self, locks, new_txn):
        """A cohort blocks on its pending request; issuing another at
        the same node, on the same page or on a second one, is caller
        misuse and must fail fast (the local deadlock search relies on
        one queued request per transaction per node)."""
        holder, waiter = new_txn(), new_txn()
        acquire(locks, cohort_of(holder), page(1), LockMode.EXCLUSIVE)
        acquire(locks, cohort_of(waiter), page(1), LockMode.SHARED)
        for second in (page(1), page(2)):
            with pytest.raises(
                RuntimeError, match="already has a queued"
            ):
                acquire(
                    locks, cohort_of(waiter), second, LockMode.EXCLUSIVE
                )
        locks.assert_consistent()

    def test_consistency_check_passes(self, locks, new_txn):
        for index in range(4):
            acquire(
                locks, cohort_of(new_txn()), page(index), LockMode.SHARED
            )
        locks.assert_consistent()


class TestDeterministicReleaseOrder:
    """release_all must fire grant passes in sorted page order.

    The waiters' grant events are scheduled in the order pages are
    visited; iterating the held-set directly would make wakeup order
    hash-dependent, which simlint's unordered-iteration rule rejects
    for exactly this spot.
    """

    def _grant_order(self, env, locks, new_txn, pages):
        holder = new_txn()
        for p in pages:
            acquire(locks, cohort_of(holder), p, LockMode.EXCLUSIVE)
        waiters = {}
        for p in pages:
            txn = new_txn()
            _, request, _ = acquire(
                locks, cohort_of(txn), p, LockMode.EXCLUSIVE
            )
            waiters[p] = request.event
        order = []

        def watch(p, event):
            yield event
            order.append(p)

        for p, event in waiters.items():
            env.process(watch(p, event))
        env.run()  # let every watcher start and block on its event
        locks.release_all(holder)
        env.run()
        return order

    def test_grants_fire_in_sorted_page_order(self, env, locks,
                                              new_txn):
        pages = [page(index) for index in (7, 2, 9, 4, 0, 5)]
        order = self._grant_order(env, locks, new_txn, pages)
        assert order == sorted(pages)

    def test_order_independent_of_acquisition_order(self, env,
                                                    new_txn):
        first = make_locks(env, upgrades_jump_queue=True)
        pages = [page(index) for index in (3, 1, 8)]
        assert self._grant_order(
            env, first, new_txn, pages
        ) == self._grant_order(
            env,
            make_locks(env, upgrades_jump_queue=True),
            new_txn,
            list(reversed(pages)),
        )
