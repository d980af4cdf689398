"""Tests for the immediate-restart extension algorithm."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.immediate_restart import (
    ImmediateRestart,
    ImmediateRestartNodeManager,
)

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return ImmediateRestartNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


def test_uncontended_requests_granted(manager, new_txn):
    txn = new_txn()
    assert (
        manager.read_request(cohort_of(txn), page(1)).result
        is RequestResult.GRANTED
    )
    assert (
        manager.write_request(cohort_of(txn), page(1)).result
        is RequestResult.GRANTED
    )


def test_any_conflict_rejects(manager, new_txn):
    holder = new_txn()
    requester = new_txn()
    manager.read_request(cohort_of(holder), page(1))
    manager.write_request(cohort_of(holder), page(1))
    response = manager.read_request(cohort_of(requester), page(1))
    assert response.result is RequestResult.REJECTED


def test_never_blocks(manager, new_txn):
    """No request ever returns BLOCKED, in either direction of age."""
    old = new_txn(0.0)
    young = new_txn(1.0)
    manager.read_request(cohort_of(old), page(1))
    manager.write_request(cohort_of(old), page(1))
    assert (
        manager.read_request(cohort_of(young), page(1)).result
        is RequestResult.REJECTED
    )
    manager.abort(cohort_of(old))
    manager.register_cohort
    manager.read_request(cohort_of(young), page(1))
    manager.write_request(cohort_of(young), page(1))
    assert (
        manager.read_request(cohort_of(old), page(1)).result
        is RequestResult.REJECTED
    )


def test_rejected_request_not_queued(manager, new_txn):
    holder = new_txn()
    requester = new_txn()
    manager.read_request(cohort_of(holder), page(1))
    manager.write_request(cohort_of(holder), page(1))
    manager.read_request(cohort_of(requester), page(1))
    assert not manager.locks.is_waiting(requester)


def test_shared_access_still_compatible(manager, new_txn):
    a, b = new_txn(), new_txn()
    manager.read_request(cohort_of(a), page(1))
    assert (
        manager.read_request(cohort_of(b), page(1)).result
        is RequestResult.GRANTED
    )


def test_no_waits_for_edges(manager, new_txn):
    holder = new_txn()
    requester = new_txn()
    manager.read_request(cohort_of(holder), page(1))
    manager.write_request(cohort_of(holder), page(1))
    manager.read_request(cohort_of(requester), page(1))
    assert manager.waits_for_edges() == []


class TestAbortCleanup:
    """Abort/cleanup paths: IR keeps no queue, so cleanup is all
    about held locks and the order aborts release them in."""

    def test_abort_releases_locks_for_future_requesters(
        self, manager, new_txn
    ):
        holder = new_txn()
        requester = new_txn()
        manager.read_request(cohort_of(holder), page(1))
        manager.write_request(cohort_of(holder), page(1))
        manager.abort(cohort_of(holder))
        assert not manager.locks.holds_any(holder)
        assert (
            manager.write_request(cohort_of(requester), page(1)).result
            is RequestResult.GRANTED
        )

    def test_abort_is_idempotent(self, manager, new_txn):
        holder = new_txn()
        manager.read_request(cohort_of(holder), page(1))
        manager.abort(cohort_of(holder))
        manager.abort(cohort_of(holder))
        assert not manager.locks.holds_any(holder)

    def test_forced_abort_release_order_is_immaterial(self, new_txn,
                                                      context):
        """Shared holders force-aborted in any order leave the same
        final state: the survivor holds, the page upgrades only after
        every other holder is gone."""
        manager = ImmediateRestartNodeManager(0, context)
        a, b, survivor = new_txn(), new_txn(), new_txn()
        for txn in (a, b, survivor):
            manager.read_request(cohort_of(txn), page(1))
        # An exclusive conversion conflicts while others hold.
        assert (
            manager.write_request(cohort_of(survivor), page(1)).result
            is RequestResult.REJECTED
        )
        manager.abort(cohort_of(b))
        assert (
            manager.write_request(cohort_of(survivor), page(1)).result
            is RequestResult.REJECTED
        )
        manager.abort(cohort_of(a))
        assert (
            manager.write_request(cohort_of(survivor), page(1)).result
            is RequestResult.GRANTED
        )

    def test_abort_leaves_no_waiting_state(self, manager, new_txn):
        holder = new_txn()
        rejected = new_txn()
        manager.read_request(cohort_of(holder), page(1))
        manager.write_request(cohort_of(holder), page(1))
        manager.read_request(cohort_of(rejected), page(1))
        manager.abort(cohort_of(rejected))
        assert not manager.locks.is_waiting(rejected)
        assert manager.waits_for_edges() == []
        # Holder unaffected by the requester's abort.
        assert manager.locks.holds_any(holder)

    def test_crash_reset_drops_held_locks(self, manager, new_txn):
        holder = new_txn()
        manager.read_request(cohort_of(holder), page(1))
        manager.write_request(cohort_of(holder), page(2))
        manager.crash_reset()
        assert not manager.locks.holds_any(holder)
        fresh = new_txn()
        assert (
            manager.write_request(cohort_of(fresh), page(1)).result
            is RequestResult.GRANTED
        )


def test_name():
    assert ImmediateRestart.name == "ir"
