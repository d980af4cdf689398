"""Tests for the 2PL node manager (blocking + deadlock detection)."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.two_phase_locking import (
    TwoPhaseLocking,
    TwoPhaseLockingNodeManager,
)

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return TwoPhaseLockingNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


class TestBasicLocking:
    def test_read_granted(self, manager, new_txn):
        response = manager.read_request(
            cohort_of(new_txn()), page(1)
        )
        assert response.result is RequestResult.GRANTED

    def test_conflicting_write_blocks(self, manager, new_txn):
        reader, writer = new_txn(), new_txn()
        manager.read_request(cohort_of(reader), page(1))
        manager.read_request(cohort_of(writer), page(1))
        response = manager.write_request(cohort_of(writer), page(1))
        assert response.result is RequestResult.BLOCKED

    def test_prepare_always_yes(self, manager, new_txn):
        txn = new_txn()
        manager.read_request(cohort_of(txn), page(1))
        assert manager.prepare(cohort_of(txn)) is True

    def test_commit_releases_and_returns_updates(self, env, manager,
                                                 new_txn):
        writer, waiter = new_txn(), new_txn()
        manager.read_request(cohort_of(writer), page(1))
        manager.write_request(cohort_of(writer), page(1))
        response = manager.read_request(cohort_of(waiter), page(1))
        assert response.result is RequestResult.BLOCKED
        installed = manager.commit(cohort_of(writer))
        assert installed == cohort_of(writer).updated_pages
        env.run()
        assert response.event.fired
        assert response.event.value is RequestResult.GRANTED

    def test_abort_releases_locks(self, manager, new_txn):
        txn = new_txn()
        manager.read_request(cohort_of(txn), page(1))
        manager.abort(cohort_of(txn))
        assert not manager.locks.holds_any(txn)

    def test_abort_idempotent(self, manager, new_txn):
        txn = new_txn()
        manager.read_request(cohort_of(txn), page(1))
        manager.abort(cohort_of(txn))
        manager.abort(cohort_of(txn))


class TestLocalDeadlockDetection:
    def test_upgrade_deadlock_aborts_youngest(self, manager, new_txn,
                                              aborts):
        old, young = new_txn(0.0), new_txn(1.0)
        manager.read_request(cohort_of(old), page(1))
        manager.read_request(cohort_of(young), page(1))
        first = manager.write_request(cohort_of(old), page(1))
        assert first.result is RequestResult.BLOCKED
        assert aborts.requests == []
        second = manager.write_request(cohort_of(young), page(1))
        assert second.result is RequestResult.BLOCKED
        assert aborts.victims == [young]
        assert aborts.requests[0][1] == "local-deadlock"

    def test_cross_page_deadlock_detected(self, manager, new_txn,
                                          aborts):
        old, young = new_txn(0.0), new_txn(1.0)
        manager.read_request(cohort_of(old), page(1))
        manager.write_request(cohort_of(old), page(1))
        manager.read_request(cohort_of(young), page(2))
        manager.write_request(cohort_of(young), page(2))
        blocked = manager.read_request(cohort_of(old), page(2))
        assert blocked.result is RequestResult.BLOCKED
        assert aborts.requests == []  # no cycle yet
        blocked = manager.read_request(cohort_of(young), page(1))
        assert blocked.result is RequestResult.BLOCKED
        assert aborts.victims == [young]

    def test_no_false_positive_on_simple_wait(self, manager, new_txn,
                                              aborts):
        a, b = new_txn(0.0), new_txn(1.0)
        manager.read_request(cohort_of(a), page(1))
        manager.write_request(cohort_of(a), page(1))
        response = manager.read_request(cohort_of(b), page(1))
        assert response.result is RequestResult.BLOCKED
        assert aborts.requests == []


class TestWaitsForExport:
    def test_edges_exposed_for_snoop(self, manager, new_txn):
        a, b = new_txn(), new_txn()
        manager.read_request(cohort_of(a), page(1))
        manager.write_request(cohort_of(a), page(1))
        manager.read_request(cohort_of(b), page(1))
        assert (b, a) in manager.waits_for_edges()


class TestAlgorithmFactory:
    def test_name(self):
        assert TwoPhaseLocking.name == "2pl"

    def test_timestamps_persist_across_restart(self, env, new_txn):
        algorithm = TwoPhaseLocking()
        txn = new_txn()
        txn.startup_timestamp = None
        txn.timestamp = None
        algorithm.assign_timestamps(txn, 5.0)
        first = txn.startup_timestamp
        algorithm.assign_timestamps(txn, 9.0)
        assert txn.startup_timestamp == first
        assert txn.timestamp == first

    def test_node_manager_factory(self, context):
        algorithm = TwoPhaseLocking()
        manager = algorithm.make_node_manager(3, context)
        assert isinstance(manager, TwoPhaseLockingNodeManager)
        assert manager.node_id == 3
