"""Tests for the wound-wait node manager."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.wound_wait import WoundWait, WoundWaitNodeManager
from repro.core.transaction import TransactionState

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return WoundWaitNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


class TestWounding:
    def test_older_wounds_younger_holder(self, manager, new_txn,
                                         aborts):
        young = new_txn(1.0)
        old = new_txn(0.0)
        manager.read_request(cohort_of(young), page(1))
        manager.write_request(cohort_of(young), page(1))
        response = manager.read_request(cohort_of(old), page(1))
        assert response.result is RequestResult.BLOCKED
        assert aborts.victims == [young]
        assert aborts.requests[0][1] == "wound"

    def test_younger_waits_for_older(self, manager, new_txn, aborts):
        old = new_txn(0.0)
        young = new_txn(1.0)
        manager.read_request(cohort_of(old), page(1))
        manager.write_request(cohort_of(old), page(1))
        response = manager.read_request(cohort_of(young), page(1))
        assert response.result is RequestResult.BLOCKED
        assert aborts.requests == []

    def test_wound_skipped_in_second_commit_phase(self, manager,
                                                  new_txn, aborts):
        young = new_txn(1.0)
        old = new_txn(0.0)
        manager.read_request(cohort_of(young), page(1))
        manager.write_request(cohort_of(young), page(1))
        young.state = TransactionState.COMMITTING
        response = manager.read_request(cohort_of(old), page(1))
        assert response.result is RequestResult.BLOCKED
        assert aborts.requests == []  # non-fatal wound, just wait

    def test_wounds_all_younger_in_conflict_set(self, manager,
                                                new_txn, aborts):
        young_a = new_txn(1.0)
        young_b = new_txn(2.0)
        old = new_txn(0.0)
        manager.read_request(cohort_of(young_a), page(1))
        manager.read_request(cohort_of(young_b), page(1))
        response = manager.write_request(cohort_of(young_a), page(1))
        # young_a (older than young_b) wounds young_b.
        assert response.result is RequestResult.BLOCKED
        assert aborts.victims == [young_b]
        aborts.requests.clear()
        response = manager.read_request(cohort_of(old), page(1))
        assert response.result is RequestResult.BLOCKED
        # old's shared request conflicts only with the queued upgrade
        # (the shared holders are compatible): it wounds young_a.
        assert aborts.victims == [young_a]

    def test_no_wound_on_compatible_access(self, manager, new_txn,
                                           aborts):
        young = new_txn(1.0)
        old = new_txn(0.0)
        manager.read_request(cohort_of(young), page(1))
        response = manager.read_request(cohort_of(old), page(1))
        assert response.result is RequestResult.GRANTED
        assert aborts.requests == []

    def test_upgrades_do_not_jump_queue(self, manager):
        assert manager.upgrades_jump_queue is False


class TestDeadlockFreedom:
    def test_upgrade_collision_resolved_by_wound(self, manager,
                                                 new_txn, aborts):
        """Two readers both upgrading: the younger is wounded, so the
        classic upgrade deadlock cannot persist."""
        old = new_txn(0.0)
        young = new_txn(1.0)
        manager.read_request(cohort_of(old), page(1))
        manager.read_request(cohort_of(young), page(1))
        first = manager.write_request(cohort_of(old), page(1))
        assert first.result is RequestResult.BLOCKED
        assert aborts.victims == [young]

    def test_queue_ahead_wound(self, manager, new_txn, aborts):
        """An upgrade queued behind a younger plain waiter wounds it."""
        holder = new_txn(0.0)
        young_writer = new_txn(2.0)
        upgrader = new_txn(1.0)
        manager.read_request(cohort_of(holder), page(1))
        manager.read_request(cohort_of(upgrader), page(1))
        manager.write_request(cohort_of(young_writer), page(1))
        aborts.requests.clear()
        manager.write_request(cohort_of(upgrader), page(1))
        assert young_writer in aborts.victims


class TestTimestampPolicy:
    def test_restart_keeps_original_timestamp(self, new_txn):
        algorithm = WoundWait()
        txn = new_txn()
        txn.startup_timestamp = None
        txn.timestamp = None
        algorithm.assign_timestamps(txn, 1.0)
        original = txn.timestamp
        algorithm.assign_timestamps(txn, 50.0)
        assert txn.timestamp == original

    def test_name(self):
        assert WoundWait.name == "ww"
