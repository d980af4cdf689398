"""Tests for basic timestamp ordering."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.timestamp_ordering import (
    BasicTimestampOrdering,
    BtoNodeManager,
)

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return BtoNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


def setup_cohort(manager, txn):
    manager.register_cohort(cohort_of(txn))
    return cohort_of(txn)


class TestReadRules:
    def test_read_of_untouched_page_granted(self, manager, new_txn):
        cohort = setup_cohort(manager, new_txn(1.0))
        response = manager.read_request(cohort, page(1))
        assert response.result is RequestResult.GRANTED

    def test_read_updates_rts(self, manager, new_txn):
        txn = new_txn(1.0)
        cohort = setup_cohort(manager, txn)
        manager.read_request(cohort, page(1))
        rts, _wts = manager.page_timestamps(page(1))
        assert rts == txn.timestamp

    def test_read_older_than_committed_write_rejected(
        self, manager, new_txn
    ):
        writer = new_txn(5.0)
        writer_cohort = setup_cohort(manager, writer)
        writer.commit_timestamp = writer.timestamp
        manager.write_request(writer_cohort, page(1))
        manager.commit(writer_cohort)
        reader_cohort = setup_cohort(manager, new_txn(1.0))
        response = manager.read_request(reader_cohort, page(1))
        assert response.result is RequestResult.REJECTED

    def test_read_blocks_behind_earlier_prewrite(self, manager,
                                                 new_txn):
        writer = new_txn(1.0)
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        reader_cohort = setup_cohort(manager, new_txn(2.0))
        response = manager.read_request(reader_cohort, page(1))
        assert response.result is RequestResult.BLOCKED

    def test_read_ignores_later_prewrite(self, manager, new_txn):
        writer = new_txn(5.0)
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        reader_cohort = setup_cohort(manager, new_txn(2.0))
        response = manager.read_request(reader_cohort, page(1))
        assert response.result is RequestResult.GRANTED

    def test_blocked_read_granted_on_writer_commit(self, env, manager,
                                                   new_txn):
        writer = new_txn(1.0)
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        reader = new_txn(2.0)
        reader_cohort = setup_cohort(manager, reader)
        response = manager.read_request(reader_cohort, page(1))
        manager.commit(writer_cohort)
        env.run()
        assert response.event.fired
        assert response.event.value is RequestResult.GRANTED
        rts, wts = manager.page_timestamps(page(1))
        assert rts == reader.timestamp
        assert wts == writer.timestamp

    def test_blocked_read_granted_on_writer_abort(self, env, manager,
                                                  new_txn):
        writer_cohort = setup_cohort(manager, new_txn(1.0))
        manager.write_request(writer_cohort, page(1))
        reader_cohort = setup_cohort(manager, new_txn(2.0))
        response = manager.read_request(reader_cohort, page(1))
        manager.abort(writer_cohort)
        env.run()
        assert response.event.value is RequestResult.GRANTED

    def test_blocked_read_rejected_if_newer_write_committed(
        self, env, manager, new_txn
    ):
        early_writer = new_txn(1.0)
        late_writer = new_txn(5.0)
        early_cohort = setup_cohort(manager, early_writer)
        late_cohort = setup_cohort(manager, late_writer)
        manager.write_request(early_cohort, page(1))
        manager.write_request(late_cohort, page(1))
        reader_cohort = setup_cohort(manager, new_txn(2.0))
        response = manager.read_request(reader_cohort, page(1))
        assert response.result is RequestResult.BLOCKED
        # The *later* writer commits first, advancing wts past the
        # reader's timestamp; then the early writer commits.
        manager.commit(late_cohort)
        manager.commit(early_cohort)
        env.run()
        assert response.event.value is RequestResult.REJECTED


class TestWriteRules:
    def test_write_never_blocks(self, manager, new_txn):
        a_cohort = setup_cohort(manager, new_txn(1.0))
        b_cohort = setup_cohort(manager, new_txn(2.0))
        assert (
            manager.write_request(a_cohort, page(1)).result
            is RequestResult.GRANTED
        )
        assert (
            manager.write_request(b_cohort, page(1)).result
            is RequestResult.GRANTED
        )
        assert manager.pending_count(page(1)) == 2

    def test_write_older_than_read_rejected(self, manager, new_txn):
        reader_cohort = setup_cohort(manager, new_txn(5.0))
        manager.read_request(reader_cohort, page(1))
        writer_cohort = setup_cohort(manager, new_txn(1.0))
        response = manager.write_request(writer_cohort, page(1))
        assert response.result is RequestResult.REJECTED

    def test_thomas_write_rule_ignores_stale_write(self, manager,
                                                   new_txn):
        late_writer = new_txn(5.0)
        late_cohort = setup_cohort(manager, late_writer)
        manager.write_request(late_cohort, page(1))
        manager.commit(late_cohort)
        stale_cohort = setup_cohort(manager, new_txn(1.0))
        response = manager.write_request(stale_cohort, page(1))
        assert response.result is RequestResult.GRANTED
        assert manager.pending_count(page(1)) == 0  # not queued
        # The discarded write never installs.
        installed = manager.commit(stale_cohort)
        assert installed == []

    def test_commit_installs_in_timestamp_order(self, manager,
                                                new_txn):
        early = new_txn(1.0)
        late = new_txn(2.0)
        early_cohort = setup_cohort(manager, early)
        late_cohort = setup_cohort(manager, late)
        manager.write_request(early_cohort, page(1))
        manager.write_request(late_cohort, page(1))
        # Late writer commits first; early's later install must not
        # regress the page's write timestamp.
        manager.commit(late_cohort)
        installed = manager.commit(early_cohort)
        assert installed == []
        _rts, wts = manager.page_timestamps(page(1))
        assert wts == late.timestamp

    def test_commit_returns_installed_pages(self, manager, new_txn):
        txn = new_txn(1.0)
        cohort = setup_cohort(manager, txn)
        manager.write_request(cohort, page(1))
        manager.write_request(cohort, page(2))
        installed = manager.commit(cohort)
        assert sorted(installed) == sorted([page(1), page(2)])


class TestAbort:
    def test_abort_discards_prewrites(self, manager, new_txn):
        cohort = setup_cohort(manager, new_txn(1.0))
        manager.write_request(cohort, page(1))
        manager.abort(cohort)
        assert manager.pending_count(page(1)) == 0
        _rts, wts = manager.page_timestamps(page(1))
        assert wts[0] < 0  # never installed

    def test_abort_removes_blocked_read(self, manager, new_txn):
        writer_cohort = setup_cohort(manager, new_txn(1.0))
        manager.write_request(writer_cohort, page(1))
        reader_cohort = setup_cohort(manager, new_txn(2.0))
        manager.read_request(reader_cohort, page(1))
        manager.abort(reader_cohort)
        # Writer commits: nobody left to wake, no crash.
        manager.commit(writer_cohort)

    def test_abort_idempotent(self, manager, new_txn):
        cohort = setup_cohort(manager, new_txn(1.0))
        manager.write_request(cohort, page(1))
        manager.abort(cohort)
        manager.abort(cohort)


class TestTimestampPolicy:
    def test_restart_gets_fresh_timestamp(self, new_txn):
        algorithm = BasicTimestampOrdering()
        txn = new_txn()
        txn.startup_timestamp = None
        txn.timestamp = None
        algorithm.assign_timestamps(txn, 1.0)
        first = txn.timestamp
        assert txn.startup_timestamp == first
        algorithm.assign_timestamps(txn, 9.0)
        assert txn.timestamp > first
        assert txn.startup_timestamp == first  # startup never changes

    def test_name(self):
        assert BasicTimestampOrdering.name == "bto"
